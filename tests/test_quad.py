import math

import numpy as np
import pytest

import hlp_sharp.quad as quad
from hlp_sharp.hgroup import GroupParams, HPoint, hnorm_arrays, identity
from hlp_sharp.params import ExponentSet, ParamSet, derive_exponents
from hlp_sharp.quad import (
    DivergenceError,
    MCSpec,
    QuadratureSpec,
    SamplingError,
    derive_seed,
    hilbert_constant_oracle,
    hlp_constant_oracle,
    integrate_curve,
    mc_ball_integral,
    polar_directions,
)

# Frozen reference values for the bilinear example (m=2, n=1, q=2, q_j=4,
# lambda=-1/4, lambda_j=-1/8, gamma_j=0, alpha=0), obtained from an
# independent high-sample Monte Carlo pilot and a 50-digit quadrature check.
FROZEN_A2 = 254.4564010684145
FROZEN_B2 = 104.83263451184757


def bilinear_exponents():
    p = ParamSet(
        m=2,
        n=1,
        q=2.0,
        q_list=(4.0, 4.0),
        lam=-0.25,
        lam_list=(-0.125, -0.125),
        gamma_list=(0.0, 0.0),
        alpha=0.0,
    )
    return derive_exponents(p)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_quadrature_spec_rejects_bad_settings():
    with pytest.raises(ValueError):
        QuadratureSpec(panels=0)


def test_mc_spec_rejects_bad_settings():
    with pytest.raises(ValueError):
        MCSpec(samples=999)
    with pytest.raises(ValueError):
        MCSpec(shards=0)


def test_derive_seed_is_deterministic_and_index_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)
    assert 0 <= derive_seed(0) < 2**63


# ---------------------------------------------------------------------------
# 1-D engine
# ---------------------------------------------------------------------------


def test_integrate_curve_beta_integral(quad_spec):
    # int_0^inf t^(a-1) (1+t)^(-(a+b)) dt = B(a, b): singular origin plus a
    # power tail through the rational fold.
    for a, b in ((0.3, 1.2), (0.9, 0.4), (1.7, 2.5)):
        got = integrate_curve(
            lambda t, a=a, b=b: t ** (a - 1.0) * (1.0 + t) ** (-(a + b)),
            quad_spec,
            breakpoints=(1.0,),
        )
        beta_ab = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        assert got == pytest.approx(beta_ab, rel=1e-9)


def test_integrate_curve_exponential_tail_both_transforms(quad_spec):
    # int_0^inf r^3 e^(-r) dr = Gamma(4) = 6
    def g(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp(-r)
        return np.where(e == 0.0, 0.0, r**3 * e)

    assert integrate_curve(g, quad_spec, breakpoints=(1.0, 8.0)) == pytest.approx(
        6.0, rel=1e-9
    )


def test_integrate_curve_respects_bounds_and_breakpoints(quad_spec):
    assert integrate_curve(lambda r: r, quad_spec, lower=2.0, upper=1.0) == 0.0
    got = integrate_curve(
        lambda r: np.where(np.asarray(r) < 1.0, 1.0, 0.0),
        quad_spec,
        breakpoints=(1.0,),
        upper=3.0,
    )
    assert got == pytest.approx(1.0, rel=1e-10)


def test_integrate_curve_flags_origin_divergence(quad_spec):
    with pytest.raises(DivergenceError) as exc:
        integrate_curve(lambda r: 1.0 / np.asarray(r), quad_spec, upper=1.0)
    assert "origin" in exc.value.conditions


def test_integrate_curve_flags_tail_divergence(quad_spec):
    with pytest.raises(DivergenceError) as exc:
        integrate_curve(lambda r: 1.0 / (1.0 + np.asarray(r)), quad_spec)
    assert "tail" in exc.value.conditions


# ---------------------------------------------------------------------------
# Constant oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 5.0])
def test_oracles_match_classical_anchors_m1(q, gp1, quad_spec):
    Q = gp1.Q
    e = ExponentSet(sigma_list=(-Q / q,), sigma=-Q / q)
    a_ref = gp1.Omega_Q * q * q / (q - 1.0)
    b_ref = gp1.Omega_Q * math.pi / math.sin(math.pi / q)
    assert hlp_constant_oracle(e, gp1, quad_spec) == pytest.approx(a_ref, rel=1e-8)
    assert hilbert_constant_oracle(e, gp1, quad_spec) == pytest.approx(b_ref, rel=1e-8)


def test_oracles_match_frozen_bilinear_values(gp1, quad_spec):
    e = bilinear_exponents()
    assert hlp_constant_oracle(e, gp1, quad_spec) == pytest.approx(
        FROZEN_A2, rel=1e-8
    )
    assert hilbert_constant_oracle(e, gp1, quad_spec) == pytest.approx(
        FROZEN_B2, rel=1e-8
    )


def test_hlp_oracle_keeps_steep_tails_at_large_mQ(quad_spec):
    # m=4, n=3 (mQ = 32): the tail integrand r^(Q-1+sigma_i-mQ) alone would
    # underflow at the folded radii, truncating the tail.
    from hlp_sharp.constants import hlp_closed_form

    gp = GroupParams(n=3)
    p = ParamSet(m=4, n=3, q=2.0, q_list=(8.0,) * 4, lam=-0.01,
                 lam_list=(-0.0025,) * 4, gamma_list=(0.0,) * 4)
    e = derive_exponents(p)
    closed = hlp_closed_form(e, gp).value
    assert hlp_constant_oracle(e, gp, quad_spec) == pytest.approx(closed, rel=1e-10)


def test_oracles_reject_inadmissible_exponents(gp1, quad_spec):
    bad_sigma = ExponentSet(sigma_list=(-0.5,), sigma=0.5)
    for oracle in (hlp_constant_oracle, hilbert_constant_oracle):
        with pytest.raises(DivergenceError) as exc:
            oracle(bad_sigma, gp1, quad_spec)
        assert any(c.startswith("sigma<0 violated") for c in exc.value.conditions)

    bad_sigma_j = ExponentSet(sigma_list=(-0.5, -4.0), sigma=-1.0)
    for oracle in (hlp_constant_oracle, hilbert_constant_oracle):
        with pytest.raises(DivergenceError) as exc:
            oracle(bad_sigma_j, gp1, quad_spec)
        assert any(c.startswith("Q+sigma_j>0 violated") for c in exc.value.conditions)


def test_hilbert_oracle_flags_divergent_beta_factor(gp1, quad_spec):
    # Individually admissible sigma_j may still break the nested reduction
    # when their sum is nonnegative.
    e = ExponentSet(sigma_list=(1.0, 1.0), sigma=-1.0)
    with pytest.raises(DivergenceError) as exc:
        hilbert_constant_oracle(e, gp1, quad_spec)
    assert "beta factor" in exc.value.conditions


def test_oracles_reject_large_m(gp1, quad_spec):
    e = ExponentSet(sigma_list=(-0.5,) * 5, sigma=-2.5)
    with pytest.raises(ValueError):
        hlp_constant_oracle(e, gp1, quad_spec)
    with pytest.raises(ValueError):
        hilbert_constant_oracle(e, gp1, quad_spec)


# ---------------------------------------------------------------------------
# Monte Carlo ball integrals
# ---------------------------------------------------------------------------


def ones(pts):
    return np.ones(len(pts))


def test_mc_ball_volume_within_three_sigma(gp1, mc_small):
    center = HPoint((0.3, -0.2, 0.4))
    est, se = mc_ball_integral(ones, center, 1.0, gp1, mc_small)
    assert se > 0.0
    assert abs(est - gp1.Omega_Q) <= 3.0 * se


def test_mc_ball_scale_covariance_is_exact(gp1, mc_small):
    center = HPoint((0.3, -0.2, 0.4))
    est1, se1 = mc_ball_integral(ones, center, 1.0, gp1, mc_small)
    est2, se2 = mc_ball_integral(ones, center, 2.0, gp1, mc_small)
    # Same seed, same accepted candidates; the box volume scales by 2^Q = 16,
    # an exact power of two, so the estimates match bit for bit.
    assert est2 == 16.0 * est1
    assert se2 == 16.0 * se1


def test_mc_ball_importance_matches_origin_singularity(gp1, mc_small):
    # f = |x|^(-2) on B(0, 1): omega_Q int_0^1 r^(3-2) dr = omega_Q/2.
    def f(pts):
        return hnorm_arrays(pts, gp1.n) ** -2.0

    exact = gp1.omega_Q / 2.0
    est, se = mc_ball_integral(
        f, identity(gp1.n), 1.0, gp1, mc_small, origin_exponent=-2.0
    )
    # The tilted radial law matches the integrand exactly, so the only error
    # is roundoff; keep the statistical slack anyway.
    assert abs(est - exact) <= 3.0 * se + 1e-12 * exact


def test_mc_ball_window_containment_is_exact(gp1, mc_small):
    est, se = mc_ball_integral(
        ones, identity(gp1.n), 1.0, gp1, mc_small, radial_window=(0.0, 0.5)
    )
    exact = gp1.Omega_Q * 0.5**gp1.Q
    assert abs(est - exact) <= 3.0 * se + 1e-12 * exact
    assert se <= 1e-12 * exact


def test_mc_ball_window_empty_intersection_is_exact_zero(gp1, mc_small):
    est, se = mc_ball_integral(
        ones, identity(gp1.n), 1.0, gp1, mc_small, radial_window=(2.0, 3.0)
    )
    assert (est, se) == (0.0, 0.0)


def test_mc_ball_window_partial_overlap_is_honest(gp1, mc_small):
    center = HPoint((0.6, 0.0, 0.0))
    est, se = mc_ball_integral(
        ones, center, 0.5, gp1, mc_small, radial_window=(0.0, 10.0)
    )
    exact = gp1.Omega_Q * 0.5**gp1.Q
    assert se > 0.0
    assert abs(est - exact) <= 3.0 * se


def test_mc_ball_unwindowed_polar_is_the_infinite_window(gp1, mc_small):
    # An interior origin singularity without a window takes the polar path
    # on (0, inf) clipped to the ball, bit for bit.
    center = HPoint((0.2, 0.1, -0.3))

    def f(pts):
        return hnorm_arrays(pts, gp1.n) ** -1.5

    args = (f, center, 1.5, gp1, mc_small)
    plain = mc_ball_integral(*args)
    bare = mc_ball_integral(*args, origin_exponent=-1.5)
    windowed = mc_ball_integral(*args, origin_exponent=-1.5, radial_window=(0.0, math.inf))
    assert bare == windowed
    assert bare != plain


def test_mc_ball_determinism(gp1, mc_small):
    center = HPoint((0.2, 0.1, -0.3))

    def f(pts):
        return 1.0 + hnorm_arrays(pts, gp1.n)

    for window in (None, (0.0, 2.0)):
        first = mc_ball_integral(f, center, 1.5, gp1, mc_small, radial_window=window)
        second = mc_ball_integral(f, center, 1.5, gp1, mc_small, radial_window=window)
        assert first == second


def test_mc_ball_rejects_bad_arguments(gp1, mc_small):
    with pytest.raises(ValueError):
        mc_ball_integral(ones, identity(1), 0.0, gp1, mc_small)
    with pytest.raises(ValueError):
        mc_ball_integral(ones, identity(2), 1.0, gp1, mc_small)
    with pytest.raises(ValueError):
        mc_ball_integral(
            ones, identity(1), 1.0, gp1, mc_small, origin_exponent=-gp1.Q
        )


def test_mc_ball_sampling_error_on_vanishing_acceptance(gp1, monkeypatch):
    monkeypatch.setattr(quad, "_ACCEPT_FLOOR", 0.99)
    mc = MCSpec(samples=100_000, seed=3, shards=8)
    with pytest.raises(SamplingError):
        mc_ball_integral(ones, HPoint((0.1, 0.0, 0.0)), 1.0, gp1, mc)


@pytest.mark.parametrize("window", [None, (0.0, 5.0)])
def test_mc_ball_scalar_integrand_raises(gp1, window):
    # Integrands are vectorized: one value per row of the (N, 2n+1) batch.
    # A scalar result is an error on the plain and the polar path alike.
    def f(pts):
        return 1.0

    mc = MCSpec(samples=1000, seed=5, shards=2)
    with pytest.raises(ValueError, match=r"shape \(\d+, 3\) to \(\), not \(\d+,\)"):
        mc_ball_integral(f, HPoint((0.3, 0.0, 0.2)), 1.0, gp1, mc, radial_window=window)


@pytest.mark.parametrize("window", [None, (0.0, 5.0)])
def test_mc_ball_vectorized_integrand_fault_propagates(gp1, window):
    # A fault inside an array integrand surfaces as itself, raised by the
    # one batch call.
    calls = []

    def f(pts):
        calls.append(pts)
        return pts[:, 0] * undefined_scale  # noqa: F821

    mc = MCSpec(samples=1000, seed=5, shards=2)
    with pytest.raises(NameError, match="undefined_scale"):
        mc_ball_integral(f, HPoint((0.3, 0.0, 0.2)), 1.0, gp1, mc, radial_window=window)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Polar sphere sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_sampler_points_have_unit_gauge_norm(n):
    rng = np.random.default_rng(7)
    xi = polar_directions(rng, 20_000, n)
    assert xi.shape == (20_000, 2 * n + 1)
    assert np.max(np.abs(hnorm_arrays(xi, n) - 1.0)) <= 1e-15


@pytest.mark.parametrize("n, mean_abs_t", [(1, 2.0 / math.pi), (2, 0.5), (3, 4.0 / (3.0 * math.pi))])
def test_sphere_sampler_vertical_moment(n, mean_abs_t):
    # (t+1)/2 ~ Beta(n/2, n/2) on the sphere, so E|t| has the closed forms
    # 2/pi, 1/2 and 4/(3 pi) for n = 1, 2, 3.
    count = 200_000
    t = np.abs(polar_directions(np.random.default_rng(11), count, n)[:, -1])
    se = t.std(ddof=1) / math.sqrt(count)
    assert abs(t.mean() - mean_abs_t) <= 4.0 * se


@pytest.mark.parametrize("n", [2, 3])
def test_mc_ball_polar_volume_off_center(n):
    # Polar path with a radial window covering the swept shell: the estimate
    # of int 1 over an off-center ball is its volume Omega_Q R^Q.
    gp = GroupParams(n=n)
    coords = np.zeros(gp.dim)
    coords[0], coords[-1] = 0.5, 0.3
    R = 0.8
    mc = MCSpec(samples=20_000, seed=13, shards=4)
    est, se = mc_ball_integral(ones, HPoint(coords), R, gp, mc, radial_window=(0.0, 10.0))
    exact = gp.Omega_Q * R**gp.Q
    assert se > 0.0
    assert abs(est - exact) <= 4.0 * se
