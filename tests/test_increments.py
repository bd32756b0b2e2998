import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.cli import main
from csrk.increments import (
    CapacityError,
    _from_uniforms,
    enumerate_outcomes,
    moments_exact,
    outcome_count,
    sample_batch,
    uniforms_per_step,
)
from csrk.integrator import compute_step_arrays
from csrk.sde import linear_problem
from csrk.stats import empirical_order, grid_for_step
from csrk.tableau import builtin_scheme

LIN = linear_problem(1.5, 0.1, 0.1, 2.0)


class TestExactMoments:
    """E[I_(k)] = 0, E[I_(k)^2] = h, E[I_(k)^3] = 0, E[I_(k)^4] = 3h^2,
    E[I_(k,l)] = 0, E[I_(k,l)^2] = h^2/2, E[I_(k) I_(k,l)] = 0."""

    H = 0.37

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_moment_suite(self, m):
        h = self.H
        rel = 1e-14
        for k in range(m):
            assert abs(moments_exact(m, h, [(k,)])) <= rel * h
            assert moments_exact(m, h, [(k,)] * 2) == pytest.approx(h, rel=rel)
            assert abs(moments_exact(m, h, [(k,)] * 3)) <= rel * h**1.5
            assert moments_exact(m, h, [(k,)] * 4) == pytest.approx(
                3 * h * h, rel=rel
            )
            for l in range(m):
                assert abs(moments_exact(m, h, [(k, l)])) <= rel * h
                assert moments_exact(m, h, [(k, l), (k, l)]) == pytest.approx(
                    h * h / 2, rel=rel
                )
                assert abs(moments_exact(m, h, [(k,), (k, l)])) <= rel * h**1.5

    def test_mixed_wiener_covariance(self):
        # distinct components are independent: E[I_(0) I_(1)] = 0
        assert abs(moments_exact(2, 0.5, [(0,), (1,)])) <= 1e-15

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            moments_exact(1, 0.5, [(1,)])
        with pytest.raises(ValueError):
            moments_exact(1, 0.5, [(0, 0, 0)])


class TestEnumeration:
    def test_m1_support(self):
        dW, V, p = enumerate_outcomes(1, 0.25)
        assert dW.shape == (3, 1) and V.shape == (3, 1, 1) and p.shape == (3,)
        assert sorted(p) == pytest.approx([1 / 6, 1 / 6, 2 / 3])
        r = math.sqrt(3 * 0.25)
        assert sorted(dW[:, 0]) == pytest.approx([-r, 0.0, r])
        assert np.all(V[:, 0, 0] == -0.25)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_cardinality_and_total_probability(self, m):
        dW, V, p = enumerate_outcomes(m, 0.5)
        assert len(dW) == len(V) == len(p) == outcome_count(m) == \
            3**m * 2 ** (m * (m - 1) // 2)
        assert p.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", (2, 3))
    def test_v_structure(self, m):
        h = 0.8
        for V in enumerate_outcomes(m, h)[1]:
            assert np.all(np.diag(V) == -h)
            for k in range(m):
                for l in range(k):
                    assert V[k, l] in (-h, h)
                    assert V[l, k] == -V[k, l]

    def test_ihat2_diagonal_identity(self):
        # I_(k,k) = (dW_k^2 - h)/2, and its mean is 0
        h = 0.3
        total = 0.0
        for dW, V, p in zip(*enumerate_outcomes(1, h)):
            i2 = 0.5 * (np.outer(dW, dW) + V)
            assert i2[0, 0] == pytest.approx((dW[0] ** 2 - h) / 2)
            total += p * i2[0, 0]
        assert abs(total) <= 1e-15
        assert moments_exact(1, h, [(0, 0)]) == total

    def test_capacity_error(self):
        # 3^6 * 2^15 = 23,887,872 outcomes, refused before the table is built
        with pytest.raises(CapacityError, match="23887872 outcomes"):
            enumerate_outcomes(6, 0.5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            enumerate_outcomes(0, 0.5)
        with pytest.raises(ValueError):
            enumerate_outcomes(1, 0.0)


def from_uniforms_reference(m, h, u):
    """_from_uniforms with dW selected by a nested np.where."""
    r3h = math.sqrt(3.0 * h)
    uw = u[..., :m]
    dW = np.where(uw < 1.0 / 6.0, -r3h, np.where(uw >= 5.0 / 6.0, r3h, 0.0))
    V = np.empty(u.shape[:-1] + (m, m))
    for k in range(m):
        V[..., k, k] = -h
    pos = m
    for k in range(m):
        for l in range(k):
            v = np.where(u[..., pos] < 0.5, -h, h)
            V[..., k, l] = v
            V[..., l, k] = -v
            pos += 1
    return dW, V


class TestFromUniforms:
    """The sign-times-sqrt(3h) mapping gives the nested np.where's bits,
    +0.0 included, on and next to both thresholds."""

    EDGES = [0.0, 0.5, 1.0 - 2.0**-53]
    for cut in (1.0 / 6.0, 5.0 / 6.0):
        EDGES += [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("h", (0.3, 0.5, 1e-3, 2.0))
    def test_matches_nested_where(self, m, h):
        n = uniforms_per_step(m)
        rng = np.random.default_rng(m)
        edges = np.array(self.EDGES)
        u = rng.random((64, n))
        for k in range(n):  # every slot meets every edge value
            u[: edges.size, k] = np.roll(edges, k)
        for batch in (u, u[3]):
            got = _from_uniforms(m, h, batch)
            want = from_uniforms_reference(m, h, batch)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
        zero = _from_uniforms(m, h, np.full((1, n), 0.5))[0]
        assert not np.signbit(zero).any()


class TestSampling:
    def test_reproducibility(self):
        a = sample_batch(2, 0.5, 42, 7, 0)
        b = sample_batch(2, 0.5, 42, 7, 0)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        c = sample_batch(2, 0.5, 43, 7, 0)
        assert not (
            np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1])
        )

    def test_support(self):
        h = 0.5
        r = math.sqrt(3 * h)
        for step in range(200):
            dW, V = sample_batch(3, h, 0, 0, step)
            assert all(v in (-r, 0.0, r) for v in dW)
            assert np.all(np.diag(V) == -h)
            assert np.array_equal(V, -V.T + np.diag(2 * np.diag(V)))

    def test_batch_matches_sequential_streams(self):
        # a batch row must replicate the draws of its path sampled alone
        m, h, seed = 2, 0.25, 123
        n_paths, n_steps = 5, 4
        dW, V = [], []
        for step in range(n_steps):
            d, v = sample_batch(m, h, seed, np.arange(n_paths), step)
            dW.append(d)
            V.append(v)
        for p in range(n_paths):
            for step in range(n_steps):
                d, v = sample_batch(m, h, seed, np.uint64(p), step)
                assert np.array_equal(d, dW[step][p])
                assert np.array_equal(v, V[step][p])

    @pytest.mark.parametrize("m", (1, 2))
    def test_frequencies_match_enumeration(self, m):
        """Empirical outcome frequencies within 5 standard errors."""
        h, n = 1.0, 10**6
        dW, V = sample_batch(m, h, 2024, np.arange(n), 0)
        for dw, v, p in zip(*enumerate_outcomes(m, h)):
            hits = np.all(np.abs(dW - dw) < 1e-12, axis=1)
            if m > 1:
                hits &= np.all(
                    np.abs(V - v) < 1e-12, axis=(1, 2)
                )
            freq = hits.mean()
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 5 * se

    def test_moments_from_samples(self):
        h, n = 0.5, 10**6
        dW, _ = sample_batch(1, h, 9, np.arange(n), 0)
        se = math.sqrt(h / n)
        assert abs(dW.mean()) <= 4 * se
        var_se = math.sqrt((3 * h**2 - h**2) / n)
        assert abs((dW**2).mean() - h) <= 4 * var_se


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 3),
    h=st.floats(1e-3, 4.0, allow_nan=False),
    seed=st.integers(0, 2**32),
    path=st.integers(0, 2**20),
)
def test_sampled_invariants(m, h, seed, path):
    dW, V = sample_batch(m, h, seed, path, 0)
    assert dW.shape == (m,) and V.shape == (m, m)
    assert np.all(np.diag(V) == -h)
    assert np.all(V + V.T == np.diag(np.full(m, -2 * h)))
    assert uniforms_per_step(m) == m + m * (m - 1) // 2


# every library entry that takes a step size, and csrk local-order below,
# refuse a bad one with the one message of check_step
STEP_ENTRIES = {
    "compute_step_arrays": lambda h: compute_step_arrays(
        builtin_scheme("CRDI2WM"), LIN, 0.0, LIN.x0, h, np.zeros(1),
        np.zeros((1, 1))),
    "sample_batch": lambda h: sample_batch(1, h, 0, 0, 0),
    "enumerate_outcomes": lambda h: enumerate_outcomes(1, h),
    "moments_exact": lambda h: moments_exact(1, h, [(0,)]),
    "grid_for_step": lambda h: grid_for_step(LIN, h),
    "empirical_order": lambda h: empirical_order([(0.25, 0.1), (h, 0.05)]),
}
BAD_STEPS = [0.0, -0.5, math.nan, math.inf]


@pytest.mark.parametrize("h", BAD_STEPS)
@pytest.mark.parametrize("entry", STEP_ENTRIES)
def test_step_refused_by_one_rule(entry, h):
    with pytest.raises(ValueError) as ei:
        STEP_ENTRIES[entry](h)
    assert str(ei.value) == f"step h must be positive and finite, got {h}"


@pytest.mark.parametrize("h", BAD_STEPS)
def test_local_order_step_refused_by_one_rule(capsys, h):
    code = main(["local-order", "--scheme", "CRDI2WM", "--problem", "linear",
                 "--h-list", f"0.25,{h}"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"csrk: error: step h must be positive and finite, got {h}"]
