"""Tests for fractional-calculus primitives: exact power rules on polynomial
data and the Grunwald-Letnikov discretization on sampled data."""

import math

import numpy as np
import pytest

from fracdelay.errors import ValidationError
from fracdelay.fraccalc import (
    _GL_BLOCK,
    ShiftedPolynomial,
    UniformGrid,
    derive_initial_data,
    gl_derivative,
    gl_weights,
    rl_derivative_poly,
    rl_derivative_power,
)


# ---------------------------------------------------------------------------
# UniformGrid
# ---------------------------------------------------------------------------


def test_grid_nodes_and_end():
    g = UniformGrid(-1.0, 0.25, 9)
    nodes = g.nodes()
    assert nodes.shape == (9,)
    assert nodes[0] == -1.0
    assert g.t_end == pytest.approx(1.0)
    assert np.allclose(np.diff(nodes), 0.25)


def test_grid_index_of():
    g = UniformGrid(-1.0, 0.25, 9)
    assert g.index_of(-1.0) == 0
    assert g.index_of(0.0) == 4
    assert g.index_of(1.0) == 8
    with pytest.raises(ValidationError):
        g.index_of(1.25)
    with pytest.raises(ValidationError):
        g.index_of(0.1)


@pytest.mark.parametrize(
    "step,count",
    [
        (0.0, 5),
        (-0.1, 5),
        (0.1, 1),
        (0.1, 2.5),
        (0.1, 5.0),
        (0.1, True),
        (0.1, math.nan),
        (0.1, math.inf),
        (math.inf, 5),
        (math.nan, 5),
    ],
)
def test_grid_validation(step, count):
    with pytest.raises(ValidationError):
        UniformGrid(0.0, step, count)


@pytest.mark.parametrize("t_start", [math.nan, math.inf, -math.inf])
def test_grid_start_must_be_finite(t_start):
    with pytest.raises(ValidationError):
        UniformGrid(t_start, 0.1, 5)


def test_grid_accepts_numpy_count():
    g = UniformGrid(0.0, 0.5, np.int64(3))
    assert type(g.count) is int
    assert g.t_end == 1.0


# ---------------------------------------------------------------------------
# ShiftedPolynomial
# ---------------------------------------------------------------------------


def test_poly_eval_scalar_and_array():
    p = ShiftedPolynomial(base=-1.0, coeffs=(0.0, 0.0, 1.0))  # (t+1)^2
    assert p(0.0) == 1.0
    assert p(-1.0) == 0.0
    ts = np.array([-1.0, -0.5, 0.0, 1.0])
    assert np.allclose(p(ts), (ts + 1.0) ** 2)


def test_poly_degree_and_zero():
    assert ShiftedPolynomial(0.0, (0.0, 0.0)).is_zero()
    assert not ShiftedPolynomial(0.0, (0.0, 1e-30)).is_zero()


# ---------------------------------------------------------------------------
# rl_derivative_power
# ---------------------------------------------------------------------------


def test_power_rule_kernel_annihilation():
    # D^alpha (t-a)^{alpha-1} = 0 because 1/Gamma(0) = 0
    for alpha in (1.3, 1.6, 2.0):
        assert rl_derivative_power(0.0, alpha - 1.0, alpha, 1.0) == 0.0


def test_power_rule_classical_derivative():
    assert rl_derivative_power(0.0, 1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    # D^1 (t-a)^2 = 2 (t-a)
    for t in (0.5, 1.25, 3.0):
        assert rl_derivative_power(0.0, 2.0, 1.0, t) == pytest.approx(2.0 * t, rel=1e-13)


def test_power_rule_half_derivative_of_t():
    got = rl_derivative_power(0.0, 1.0, 0.5, 1.0)
    assert got == pytest.approx(math.gamma(2.0) / math.gamma(1.5), rel=1e-12)
    assert got == pytest.approx(1.128379167, rel=1e-8)


def test_power_rule_half_step_identity():
    # D^{alpha-1} (t-a)^{alpha-1} = Gamma(alpha) (constant in t)
    alpha = 1.6
    for t in (0.4, 1.0, 2.7):
        got = rl_derivative_power(0.0, alpha - 1.0, alpha - 1.0, t)
        assert got == pytest.approx(math.gamma(alpha), rel=1e-12)


def test_power_rule_order_zero_is_identity():
    assert rl_derivative_power(1.0, 1.7, 0.0, 2.5) == pytest.approx(1.5**1.7, rel=1e-13)


def test_power_rule_domain_errors():
    with pytest.raises(ValidationError):
        rl_derivative_power(0.0, -1.0, 0.5, 1.0)
    with pytest.raises(ValidationError):
        rl_derivative_power(0.0, 1.0, -0.5, 1.0)
    with pytest.raises(ValidationError):
        rl_derivative_power(0.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValidationError):
        rl_derivative_power(2.0, 1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# rl_derivative_poly
# ---------------------------------------------------------------------------


def test_poly_derivative_constant_half_order():
    p = ShiftedPolynomial(0.0, (1.0,))
    got = rl_derivative_poly(p, 0.5, 1.0)
    assert got == pytest.approx(1.0 / math.gamma(0.5), rel=1e-12)
    assert got == pytest.approx(0.564189584, rel=1e-8)


def test_poly_derivative_square_order_two():
    p = ShiftedPolynomial(0.3, (0.0, 0.0, 1.0))
    for t in (0.5, 1.0, 4.0):
        assert rl_derivative_poly(p, 2.0, t) == pytest.approx(2.0, rel=1e-12)


def test_poly_derivative_zero_poly():
    p = ShiftedPolynomial(0.0, (0.0, 0.0, 0.0))
    assert rl_derivative_poly(p, 1.3, 2.0) == 0.0


def test_poly_derivative_history_shape():
    # D^alpha (t+h)^2 = 2/Gamma(3-alpha) (t+h)^{2-alpha} for the solver's
    # canonical history (t+h)^2 with base -h
    alpha, h = 1.6, 1.0
    p = ShiftedPolynomial(-h, (0.0, 0.0, 1.0))
    for s in (-0.5, 0.0):
        expected = 2.0 / math.gamma(3.0 - alpha) * (s + h) ** (2.0 - alpha)
        assert rl_derivative_poly(p, alpha, s) == pytest.approx(expected, rel=1e-12)


def test_integral_then_derivative_is_identity():
    # semigroup check on evaluations: D^q I^q p == p to 1e-12
    rng = np.random.default_rng(1234)
    for _ in range(6):
        coeffs = tuple(rng.uniform(-2.0, 2.0, size=4))
        base = float(rng.uniform(-1.0, 0.0))
        p = ShiftedPolynomial(base, coeffs)
        q = float(rng.uniform(0.2, 1.8))
        t = float(rng.uniform(base + 0.2, base + 3.0))
        # I^q p is a sum of shifted powers; differentiate it term-by-term
        recon = 0.0
        for m, c in enumerate(coeffs):
            nu = m + q
            coef = math.gamma(m + 1.0) / math.gamma(m + q + 1.0)
            recon += c * coef * rl_derivative_power(base, nu, q, t)
        assert abs(recon - p(t)) <= 1e-12 * max(1.0, abs(p(t)))


def test_linearity_of_poly_derivative():
    pa = ShiftedPolynomial(0.0, (1.0, -0.5, 2.0))
    pb = ShiftedPolynomial(0.0, (0.3, 0.7))
    psum = ShiftedPolynomial(0.0, (1.3, 0.2, 2.0))
    order, t = 0.8, 1.7
    lhs = rl_derivative_poly(psum, order, t)
    rhs = rl_derivative_poly(pa, order, t) + rl_derivative_poly(pb, order, t)
    assert lhs == pytest.approx(rhs, rel=1e-13)


# ---------------------------------------------------------------------------
# gl_weights / gl_derivative
# ---------------------------------------------------------------------------


def test_gl_weights_order_one():
    w = gl_weights(1.0, 6)
    assert np.allclose(w, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_gl_weights_order_two():
    w = gl_weights(2.0, 6)
    assert np.allclose(w, [1.0, -2.0, 1.0, 0.0, 0.0, 0.0])


def test_gl_weights_start_at_one():
    for order in (0.4, 1.0, 1.6):
        assert gl_weights(order, 1).tolist() == [1.0]
    with pytest.raises(ValidationError, match="count >= 1"):
        gl_weights(1.6, 0)


def test_gl_weights_match_binomial():
    order = 0.5
    w = gl_weights(order, 8)
    for j in range(8):
        binom = math.gamma(order + 1.0) / (math.gamma(j + 1.0) * math.gamma(order - j + 1.0))
        assert w[j] == pytest.approx((-1.0) ** j * binom, rel=1e-10)


def test_gl_derivative_zero_samples():
    out = gl_derivative(np.zeros(50), 0.01, 0.7)
    assert np.all(out == 0.0)


@pytest.mark.parametrize(
    "n", [1, 2, _GL_BLOCK - 1, _GL_BLOCK, _GL_BLOCK + 1, 2 * _GL_BLOCK + 3, 3 * _GL_BLOCK]
)
@pytest.mark.parametrize("order", [0.4, 1.0, 1.6])
def test_gl_derivative_matches_direct_convolution(n, order):
    # the blocked FFT product against the direct sums, at and around the
    # block boundaries; FFT rounding scales with sum_j |w_j| * max |y|
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n)
    step = 0.01
    w = gl_weights(order, n)
    ref = step ** (-order) * np.convolve(samples, w)[:n]
    got = gl_derivative(samples, step, order)
    scale = step ** (-order) * np.sum(np.abs(w)) * np.max(np.abs(samples))
    assert got.shape == (n,)
    assert np.max(np.abs(got - ref)) <= 1e-14 * scale


def test_gl_derivative_zero_samples_across_blocks():
    out = gl_derivative(np.zeros(2 * _GL_BLOCK + 3), 2.0**-13, 1.6)
    assert np.all(out == 0.0)


def test_gl_derivative_classical_slope():
    step = 2.0**-8
    ts = np.arange(0.0, 1.0 + step / 2, step)
    out = gl_derivative(ts, step, 1.0)
    # away from the base node the order-1 GL derivative of t is exactly 1
    assert np.max(np.abs(out[1:] - 1.0)) <= 1e-6


def test_gl_derivative_half_order_convergence():
    # D^{0.5} t^{1.5} at t=1 -> Gamma(2.5)/Gamma(2), first order in step
    target = math.gamma(2.5) / math.gamma(2.0)
    errs = []
    for k in (6, 7, 8, 9):
        step = 2.0**-k
        ts = np.arange(0.0, 1.0 + step / 2, step)
        out = gl_derivative(ts**1.5, step, 0.5)
        errs.append(abs(out[-1] - target))
    assert errs[0] == pytest.approx(abs(gl_derivative(
        np.arange(0.0, 1.0 + 2.0**-7, 2.0**-6) ** 1.5, 2.0**-6, 0.5)[-1] - target))
    # observed order >= 0.9
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 / e0 <= 2.0**-0.9
    assert errs[-1] <= 2e-3
    assert target == pytest.approx(1.329340388, rel=1e-8)


def test_gl_derivative_linear_in_samples():
    rng = np.random.default_rng(77)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    out = gl_derivative(2.0 * a - 3.0 * b, 0.05, 1.3)
    ref = 2.0 * gl_derivative(a, 0.05, 1.3) - 3.0 * gl_derivative(b, 0.05, 1.3)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_gl_derivative_validation():
    with pytest.raises(ValidationError):
        gl_derivative(np.ones(4), 0.1, 0.0)
    with pytest.raises(ValidationError):
        gl_derivative(np.ones(4), 0.1, 2.5)
    with pytest.raises(ValidationError):
        gl_derivative(np.ones(4), -0.1, 1.0)
    with pytest.raises(ValidationError):
        gl_derivative(np.ones((4, 4)), 0.1, 1.0)


# ---------------------------------------------------------------------------
# derive_initial_data
# ---------------------------------------------------------------------------


def test_initial_data_square_history():
    # phi(t) = (t+h)^2: D^{alpha-1} limit and I^{2-alpha} limit both vanish
    phi = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))
    assert derive_initial_data(phi, 1.6) == (0.0, 0.0)


def test_initial_data_constant_fractional_alpha():
    # a constant history has an infinite D^{alpha-1} limit when alpha < 2
    phi = ShiftedPolynomial(-1.0, (1.0,))
    for alpha in (1.6, 1.0 + 1e-13, 2.0 - 2e-12):
        with pytest.raises(ValidationError, match="infinite"):
            derive_initial_data(phi, alpha)


@pytest.mark.parametrize("alpha", [1.0, 0.9, 2.0 + 1e-9, 3.0, math.nan])
def test_initial_data_alpha_outside_domain(alpha):
    phi = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))
    with pytest.raises(ValidationError, match=r"alpha must lie in \(1, 2\]"):
        derive_initial_data(phi, alpha)


def test_initial_data_alpha_two():
    # alpha = 2 (to 1e-12): c1 = phi'(base), c2 = phi(base)
    phi = ShiftedPolynomial(-1.0, (2.5, -0.75, 4.0))
    for alpha in (2.0, 2.0 - 5e-13):
        assert derive_initial_data(phi, alpha) == (-0.75, 2.5)
        assert derive_initial_data(ShiftedPolynomial(-1.0, (2.5,)), alpha) == (0.0, 2.5)


def test_initial_data_matching_power():
    # (t+h)^{m} with m+1 == alpha contributes m! to c1
    phi = ShiftedPolynomial(-1.0, (0.0, 3.0))  # 3*(t+h)
    c1, c2 = derive_initial_data(phi, 2.0)
    assert c1 == pytest.approx(3.0)
    assert c2 == 0.0
