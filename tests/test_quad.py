import math

import numpy as np
import pytest

import hlp_sharp.quad as quad
from hlp_sharp.constants import KINDS
from hlp_sharp.hgroup import GroupParams, HPoint, hnorm_arrays, identity
from hlp_sharp.params import ExponentSet, ParamSet, derive_exponents
from hlp_sharp.quad import (
    DivergenceError,
    MCSpec,
    QuadratureSpec,
    SamplingError,
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


# ---------------------------------------------------------------------------
# 1-D engine
# ---------------------------------------------------------------------------


def test_integrate_curve_beta_integral(quad_spec):
    # int_0^inf t^(a-1) (1+t)^(-(a+b)) dt = B(a, b): singular origin plus a
    # power tail through the rational fold.
    for a, b in ((0.3, 1.2), (0.9, 0.4), (1.7, 2.5)):
        got = integrate_curve(
            lambda t, a=a, b=b: t ** (a - 1.0) * (1.0 + t) ** (-(a + b)), quad_spec
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

    assert integrate_curve(g, quad_spec) == pytest.approx(6.0, rel=1e-9)


def test_integrate_curve_flags_origin_divergence(quad_spec):
    with pytest.raises(DivergenceError) as exc:
        integrate_curve(lambda r: 1.0 / np.asarray(r), quad_spec)
    assert "origin" in exc.value.conditions


def test_integrate_curve_flags_tail_divergence(quad_spec):
    with pytest.raises(DivergenceError) as exc:
        integrate_curve(lambda r: 1.0 / (1.0 + np.asarray(r)), quad_spec)
    assert "tail" in exc.value.conditions


def test_integrand_writing_into_its_argument_raises_and_changes_nothing(quad_spec):
    # the panel nodes are shared by every integral of the process
    def g(r):
        r *= 2.0
        return r

    def beta(t):
        return t ** (0.3 - 1.0) * (1.0 + t) ** (-1.5)

    before = integrate_curve(beta, quad_spec)
    with pytest.raises(ValueError, match="read-only"):
        integrate_curve(g, quad_spec)
    assert integrate_curve(beta, quad_spec) == before
    assert before == pytest.approx(math.gamma(0.3) * math.gamma(1.2) / math.gamma(1.5), rel=1e-9)


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


# Both oracles to the bit (float.hex).  panels = 7 uses 8, a second panel
# table beside the default one.
ORACLE_PINS = [
    (1, (-1.5,), 96, "0x1.50e1eb50f3974p+4", "0x1.0c7cd46c2c612p+4"),
    (1, (-1.5,), 7, "0x1.50c49bfd52d4fp+4", "0x1.0d33a713a417bp+4"),
    (1, (-0.5, -0.5), 96, "0x1.fce9ad669d665p+7", "0x1.a3549e2437a08p+6"),
    (2, (-0.7, -2.3), 96, "0x1.3de8868f57c02p+8", "0x1.e279d16593657p+6"),
    (2, (-1.2, 0.4, -0.9), 96, "0x1.03e41fc68401ap+12", "0x1.1af83f3e9813fp+9"),
    (3, (-3.0, -2.5, 1.5), 96, "0x1.4bacf06d0b1a2p+11", "0x1.5c873962e9a48p+8"),
    (3, (-0.25, -0.5, -1.0, -2.0), 96, "0x1.335463ea1ed77p+14", "0x1.3222726b95c1bp+9"),
]


@pytest.mark.parametrize("n, sigmas, panels, hlp_hex, hilbert_hex", ORACLE_PINS)
def test_oracles_are_bit_pinned(n, sigmas, panels, hlp_hex, hilbert_hex):
    e = ExponentSet(sigma_list=sigmas, sigma=math.fsum(sigmas))
    gp, spec = GroupParams(n=n), QuadratureSpec(panels=panels)
    assert hlp_constant_oracle(e, gp, spec).hex() == hlp_hex
    assert hilbert_constant_oracle(e, gp, spec).hex() == hilbert_hex


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


def test_oracles_match_closed_forms_past_m4(gp1, quad_spec):
    # neither oracle caps m: the max kernel sums m regions, the sum kernel
    # peels m Beta factors
    for m in (5, 8):
        e = ExponentSet(sigma_list=(-0.5,) * m, sigma=-0.5 * m)
        for closed_form, oracle in KINDS.values():
            got = oracle(e, gp1, quad_spec)
            assert got == pytest.approx(closed_form(e, gp1).value, rel=1e-12), (m, oracle)


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


def test_mc_ball_determinism(gp1, mc_small):
    center = HPoint((0.2, 0.1, -0.3))

    def f(pts):
        return 1.0 + hnorm_arrays(pts, gp1.n)

    for tilt in (0.0, -1.5):
        first = mc_ball_integral(f, center, 1.5, gp1, mc_small, origin_exponent=tilt)
        second = mc_ball_integral(f, center, 1.5, gp1, mc_small, origin_exponent=tilt)
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


@pytest.mark.parametrize("tilt", [None, -0.5])
def test_mc_ball_scalar_integrand_raises(gp1, tilt):
    # Integrands are vectorized: one value per row of the (N, 2n+1) batch.
    # A scalar result is an error on the plain and the polar path alike.
    def f(pts):
        return 1.0

    mc = MCSpec(samples=1000, seed=5, shards=2)
    with pytest.raises(ValueError, match=r"shape \(\d+, 3\) to \(\), not \(\d+,\)"):
        mc_ball_integral(f, HPoint((0.3, 0.0, 0.2)), 1.0, gp1, mc, origin_exponent=tilt or 0.0)


@pytest.mark.parametrize("tilt", [None, -0.5])
def test_mc_ball_vectorized_integrand_fault_propagates(gp1, tilt):
    # A fault inside an array integrand surfaces as itself, raised by the
    # one batch call.
    calls = []

    def f(pts):
        calls.append(pts)
        return pts[:, 0] * undefined_scale  # noqa: F821

    mc = MCSpec(samples=1000, seed=5, shards=2)
    with pytest.raises(NameError, match="undefined_scale"):
        mc_ball_integral(f, HPoint((0.3, 0.0, 0.2)), 1.0, gp1, mc, origin_exponent=tilt or 0.0)
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
    # Polar path (the ball holds the origin): the tilted estimate of int 1
    # over an off-center ball is its volume Omega_Q R^Q.
    gp = GroupParams(n=n)
    coords = np.zeros(gp.dim)
    coords[0], coords[-1] = 0.5, 0.3
    R = 0.8
    mc = MCSpec(samples=20_000, seed=13, shards=4)
    est, se = mc_ball_integral(ones, HPoint(coords), R, gp, mc, origin_exponent=-0.5)
    exact = gp.Omega_Q * R**gp.Q
    assert se > 0.0
    assert abs(est - exact) <= 4.0 * se


# ---------------------------------------------------------------------------
# Ball rule, with the Monte Carlo estimator as its oracle
# ---------------------------------------------------------------------------


def _rule_volume(rule, gp):
    return rule.inner * rule.r_in**gp.Q / gp.Q + float(rule.weights.sum())


def _center(n, horizontal, vertical, scale=1.0):
    coords = np.zeros(2 * n + 1)
    coords[0], coords[-1] = horizontal, vertical
    coords /= float(hnorm_arrays(coords, n))
    coords[: 2 * n] *= scale
    coords[-1] *= scale * scale
    return HPoint(coords)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ball_rule_volume_on_every_default_grid_cell(n):
    # F = 1 integrates to Omega_Q R^Q; the worst cells are the smallest
    # balls at |a| = 4, where the radii themselves carry ~1e-11.
    from hlp_sharp.morrey import default_grid

    gp = GroupParams(n)
    grid = default_grid(n)
    worst = 0.0
    for cr in grid.center_radii[1:]:
        for direction in grid.center_directions:
            center = HPoint(direction.coords * np.array([cr] * (2 * n) + [cr * cr]))
            for R in grid.radii:
                exact = gp.Omega_Q * R**gp.Q
                rule = quad.ball_rule(center, R, gp)
                worst = max(worst, abs(_rule_volume(rule, gp) / exact - 1.0))
    assert worst <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_rule_volume_mixed_direction_center(n):
    # a center with horizontal and vertical parts brackets its breaks numerically
    gp = GroupParams(n)
    center = _center(n, 0.6, -0.8, scale=1.0)
    for R in (0.1, 0.3, 1.0, 3.0, 10.0):
        rule = quad.ball_rule(center, R, gp)
        assert _rule_volume(rule, gp) == pytest.approx(gp.Omega_Q * R**gp.Q, rel=1e-10)


def _disc_share_reference(r, eta2, w, c, t, R, n):
    """psi_n at 30 digits and d - l: the share arccos(k_rho)/pi of each
    circle of radius rho inside the disc, k_rho = (rho^2 + d^2 - l^2) /
    (2 rho d), over the law 2 (n-1) rho (1 - rho^2)^(n-2) drho of rho;
    circles of radius below l - d count whole."""
    import mpmath

    with mpmath.workdps(30):
        r, eta2, w, c, t, R = (mpmath.mpf(v) for v in (r, eta2, w, c, t, R))
        B = 2 * r * c * mpmath.sqrt(eta2)
        H = mpmath.sqrt((r * r * eta2 + c * c) ** 2 + (r * r * w - t) ** 2)
        d, dm, dp = H / B, (H - R * R) / B, (H + R * R) / B

        def arc(rho):
            k = (rho * rho + dm * dp) / (2 * rho * d)
            return rho * (1 - rho * rho) ** (n - 2) * mpmath.acos(max(-1, min(1, k))) / mpmath.pi

        whole = 1 - (1 - min(-dm, 1) ** 2) ** (n - 1) if dm < 0 else 0
        lo, hi = abs(dm), min(dp, 1)
        part = 2 * (n - 1) * mpmath.quad(arc, [lo, hi]) if lo < hi else 0
        return float(whole + part), float(dm)


def _angle(theta):
    return math.cos(theta), math.sin(theta)


_DISC_CASES = {
    # r, cos(theta), sin(theta), and the center's c = |z|, t = |t| and the
    # radius R.  At the touching cell (1, 0, 1) the disc is huge and its
    # edge passes within 2e-4 of the origin.  The huge disc near the pole
    # has r = R: there H^2 - R^4 cancels, and cos(theta) = 2^-10 keeps it
    # exact in doubles; at other r its rounding, eps R^4, moves psi by
    # ~eps R^2 / B ~ 1e-12
    "touching cell near the pole": (7.1e-3, *_angle(1.5678), 1.0, 0.0, 1.0),
    "touching cell": (7.1e-3, *_angle(1.5), 1.0, 0.0, 1.0),
    "thin lens": (4.0, *_angle(0.002), 4.0, 0.0, 0.01),
    "thin lens, off center": (3.995, *_angle(0.0), 4.0, 0.0, 0.01),
    "huge disc near the pole": (100.0, 2.0**-10, math.sqrt(1.0 - 2.0**-20), 0.25, 0.0, 100.0),
    "d - l just below 1/2": (0.13412631056139865 * (1.0 + 1e-9), *_angle(0.3), 1.0, 0.5, 1.0),
    "d - l just above 1/2": (0.13412631056139865 * (1.0 - 1e-9), *_angle(0.3), 1.0, 0.5, 1.0),
    "disc centered on the unit circle": (1.0, *_angle(0.0), 1.0, 0.0, 0.5),
    "holds the origin, l - d < 1/2": (0.6, *_angle(0.3), 1.0, 0.0, 1.2),
    "holds the origin, l - d > 1/2": (0.3, *_angle(0.5), 1.0, 0.0, 1.2),
    "holds the unit disc": (1.0, *_angle(0.3), 1.0, 0.0, 10.0),
}


@pytest.mark.parametrize("n", [3, 4])
def test_disc_share_matches_mpmath(n):
    # the arc flux at n >= 3 against an independent integral over circles;
    # d = H/B >= 1 always (H >= r^2 cos(theta) + c^2 >= B), so no disc lies
    # inside the unit disc: the nearest case is a disc centered on its edge.
    # Within 1e-14, and 1e-12 relative where psi is tiny (the thin lenses)
    sides = []
    for label, (r, eta2, w, c, t, R) in _DISC_CASES.items():
        geo = (c, t, R, c**4 + t * t - R**4)
        got = float(quad._disc_share(np.array([r]), np.array([eta2]), np.array([w]), geo, n)[0])
        exact, dm = _disc_share_reference(r, eta2, w, c, t, R, n)
        assert abs(got - exact) <= min(1e-14, 1e-12 * exact), (label, got, exact)
        if label.startswith("d - l"):
            sides.append(dm)
    assert sides[0] < 0.5 < sides[1]


def test_default_grid_rules_evaluate_few_disc_shares(monkeypatch):
    # cold rule cost, which no cached run sees: the n = 2 default-grid rules
    # evaluate psi_2 at no more than 146,628 points, the count with polar
    # zones valued in p = cos(theta)^(1/2)
    from hlp_sharp.morrey import default_grid

    count = [0]
    share = quad._disc_share

    def counted(r, eta2, w, geo, n):
        count[0] += np.size(r)
        return share(r, eta2, w, geo, n)

    monkeypatch.setattr(quad, "_disc_share", counted)
    quad._built_rule.cache_clear()
    gp, grid = GroupParams(2), default_grid(2)
    for cr in grid.center_radii[1:]:
        for direction in grid.center_directions:
            center = HPoint(direction.coords * np.array([cr] * 4 + [cr * cr]))
            for R in grid.radii:
                quad.ball_rule(center, R, gp)
    assert 0 < count[0] <= 146_628


@pytest.mark.parametrize("gauge, t, R", [(0.153, 1.8e-6, 0.0233), (2.34, 0.0123, 0.0070)])
def test_ball_rule_mixed_center_merging_at_the_ends(gauge, t, R):
    # kinks merge within rounding of |a| -+ R, where the companion matrix
    # blurred the near-double roots: neither cell found a radial break
    gp = GroupParams(1)
    rule = quad.ball_rule(HPoint(((gauge**4 - t * t) ** 0.25, 0.0, t)), R, gp)
    assert _rule_volume(rule, gp) == pytest.approx(gp.Omega_Q * R**gp.Q, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_ball_rule_volume_from_nearly_horizontal_to_nearly_vertical(n):
    # unit-gauge centers (cos phi^(1/2), 0, .., sin phi) with t / c^2 = tan phi
    # from 1e-7 to 1e5; balls inside, through and around the origin
    gp = GroupParams(n)
    for u in (-7.0, -4.0, -1.0, 2.0, 5.0):
        phi = math.atan(10.0**u)
        coords = np.zeros(gp.dim)
        coords[0], coords[-1] = math.cos(phi) ** 0.5, math.sin(phi)
        for R in (0.01, 1.0, 10.0):
            rule = quad.ball_rule(HPoint(coords), R, gp)
            assert _rule_volume(rule, gp) == pytest.approx(gp.Omega_Q * R**gp.Q, rel=1e-10), (u, R)


def test_ball_rule_rejects_bad_arguments(gp1):
    with pytest.raises(ValueError, match="off-origin"):
        quad.ball_rule(identity(1), 1.0, gp1)
    with pytest.raises(ValueError, match="radius"):
        quad.ball_rule(HPoint((1.0, 0.0, 0.0)), 0.0, gp1)
    with pytest.raises(ValueError, match="dimension"):
        quad.ball_rule(HPoint((1.0, 0.0, 0.0)), 1.0, GroupParams(2))
    # a ball whose width the radii cannot resolve is refused, not valued 0
    for center in (HPoint((1.0, 0.0, 0.0)), HPoint((0.0, 0.0, 1.0))):
        with pytest.raises(ValueError, match="too small"):
            quad.ball_rule(center, 1e-9, gp1)


def test_ball_rule_cache_returns_a_cold_build_bit_for_bit():
    gp = GroupParams(2)
    center, breaks = _center(2, 0.6, -0.8, scale=1.0), (0.5, 1.5)
    warm = quad.ball_rule(center, 1.0, gp, breaks)
    assert quad.ball_rule(center, 1.0, gp, breaks) is warm
    quad._built_rule.cache_clear()
    cold = quad.ball_rule(center, 1.0, gp, breaks)
    assert cold is not warm and quad._built_rule.cache_info().misses == 1
    assert (cold.r_in, cold.inner) == (warm.r_in, warm.inner)
    for a, b in ((cold.nodes, warm.nodes), (cold.weights, warm.weights)):
        assert a.tobytes() == b.tobytes()


def test_cached_rule_arrays_are_read_only(gp1):
    rule = quad.ball_rule(HPoint((1.0, 0.0, 0.5)), 1.0, gp1)
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_centers_of_equal_horizontal_norm_share_one_rule(gp1):
    # the rule reads |z| and |t| only, so a rotated or reflected center hits
    for t in (0.0, 2.0):
        rule = quad.ball_rule(HPoint((3.0, 4.0, t)), 1.0, gp1)
        assert quad.ball_rule(HPoint((5.0, 0.0, t)), 1.0, gp1) is rule
        assert quad.ball_rule(HPoint((0.0, -5.0, -t)), 1.0, gp1) is rule


def test_too_small_ball_raises_on_every_call(gp1):
    # lru_cache stores no exception: the refused rule is rebuilt and refused again
    quad._built_rule.cache_clear()
    for calls in (1, 2):
        with pytest.raises(ValueError, match="too small"):
            quad.ball_rule(HPoint((1.0, 0.0, 0.0)), 1e-9, gp1)
        assert quad._built_rule.cache_info().misses == calls
    assert quad._built_rule.cache_info().currsize == 0


_PROFILE_CASES = [
    # n, horizontal, vertical, R, profile (sigma, r_min, r_max)
    (1, 1.0, 0.0, 0.6, (-1.5, 0.0, math.inf)),
    (1, 0.0, 1.0, 1.5, (-1.0, 0.5, 1.5)),
    (1, 1.0, 0.0, 1.0, (-2.5, 0.0, math.inf)),
    (2, 1.0, 0.0, 1.0, (0.5, 0.2, 1.1)),
    (2, 0.0, 1.0, 0.7, (-2.0, 0.0, math.inf)),
    (2, 0.0, 1.0, 2.0, (-3.0, 0.0, math.inf)),
]


@pytest.mark.parametrize("case", range(len(_PROFILE_CASES)))
def test_ball_rule_profile_cells_match_monte_carlo(case):
    # pure and truncated powers, horizontal and vertical centers, balls that
    # miss, touch and hold the origin: within 4 stderr of 1M samples
    from hlp_sharp.operators import RadialProfile

    n, h, v, R, (sigma, lo, hi) = _PROFILE_CASES[case]
    gp = GroupParams(n)
    prof = RadialProfile.power(sigma, lo, hi)
    center = _center(n, h, v)
    rule = quad.ball_rule(center, R, gp, prof.breakpoints())
    below = prof.moment(gp.Q - 1.0, 0.0, rule.r_in) if rule.inner else 0.0
    value = rule.inner * below + float(rule.weights @ prof(rule.nodes))
    tilt = sigma if lo == 0.0 and R > 1.0 else 0.0
    est, se = mc_ball_integral(
        lambda X: prof(hnorm_arrays(X, n)), center, R, gp,
        MCSpec(samples=1_000_000, seed=40 + case, shards=8), origin_exponent=tilt,
    )
    assert value > 0.0 and se > 0.0
    assert abs(value - est) <= 4.0 * se


@pytest.mark.parametrize("n, vertical, alpha, R", [(1, 0.0, -1.5, 2.0), (2, 1.0, 0.7, 0.5)])
def test_ball_rule_weight_matches_monte_carlo(n, vertical, alpha, R):
    # the ball weight w_1 = int_B |x|^alpha, below and above alpha = 0
    gp = GroupParams(n)
    center = _center(n, 1.0 - vertical, vertical)
    rule = quad.ball_rule(center, R, gp)
    below = rule.r_in ** (gp.Q + alpha) / (gp.Q + alpha) if rule.inner else 0.0
    value = rule.inner * below + float(rule.weights @ rule.nodes**alpha)
    est, se = mc_ball_integral(
        lambda X: hnorm_arrays(X, n) ** alpha, center, R, gp,
        MCSpec(samples=1_000_000, seed=50 + n, shards=8), origin_exponent=min(alpha, 0.0),
    )
    assert abs(value - est) <= 4.0 * se


def test_ball_rule_zero_only_off_the_support():
    # |a| = 4, R = 0.01 sweeps radii within 0.01 of 4: a support around 4
    # gives a positive cell, one it misses gives exactly 0
    from hlp_sharp.operators import RadialProfile

    gp = GroupParams(2)
    wide, off = RadialProfile.power(-1.0, 1e-2, 1e2), RadialProfile.power(-1.0, 0.5, 3.9)
    for v in (0.0, 1.0):
        center = _center(2, 1.0 - v, v, scale=4.0)
        for prof, positive in ((wide, True), (off, False)):
            rule = quad.ball_rule(center, 0.01, gp, prof.breakpoints())
            assert rule.inner == 0.0
            value = float(rule.weights @ prof(rule.nodes))
            if positive:
                assert value == pytest.approx(gp.Omega_Q * 0.01**gp.Q * prof(4.0), rel=1e-3)
            else:
                assert value == 0.0


def test_ball_rule_touching_vertical_cell_with_singular_content():
    # |a| = R puts the origin on the boundary; with Q + exponent = 0.75 the
    # radii next to the origin carry the content, where the vertical kink
    # sin(theta) = (r^4 + t^2 - R^4) / (2 r^2 t) tends to 0 and the occupied
    # share P(w > sin theta) to 1/2 (a Beta(3/2, 3/2) tail at n = 3)
    import mpmath

    n, exponent = 3, -7.25
    gp = GroupParams(n)
    rule = quad.ball_rule(_center(n, 0.0, 1.0), 1.0, gp)
    below = rule.r_in ** (gp.Q + exponent) / (gp.Q + exponent)
    value = rule.inner * below + float(rule.weights @ rule.nodes**exponent)

    def share(r):
        x = min(r * r / 2, 1)
        return (mpmath.acos(x) - x * mpmath.sqrt(1 - x * x)) / mpmath.pi

    with mpmath.workdps(30):
        edges = [0, *(mpmath.sqrt(2) * mpmath.mpf(10) ** -k for k in (12, 6, 3, 1)), mpmath.sqrt(2)]
        exact = gp.omega_Q * mpmath.quad(lambda r: r ** (gp.Q - 1 + exponent) * share(r), edges)
    assert value == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertical_cells_take_the_cap_in_closed_form(monkeypatch, n):
    # a vertical center holds the angles above its one kink, so no disc
    # share is evaluated; at |a| = R = 1 the kink is sin(theta) = r^2 / 2,
    # whose rounding in r^2 alone moves the share by ~1e-13 where the kink
    # meets the pole at r = 2^(1/2)
    import mpmath

    def refuse(*args):
        raise AssertionError("a vertical cell evaluated a disc share")

    monkeypatch.setattr(quad, "_disc_share", refuse)
    gp = GroupParams(n)
    quad._built_rule.cache_clear()  # a cached rule would evaluate nothing
    for R in (0.5, 1.0, 2.0):
        quad.ball_rule(_center(n, 0.0, 1.0), R, gp)
    assert quad._built_rule.cache_info().misses == 3
    r = np.geomspace(1e-8, math.sqrt(2.0) * (1.0 - 1e-6), 60)
    phi = quad._occupancy(r, (0.0, 1.0, 1.0, 0.0), n)
    with mpmath.workdps(30):
        norm = mpmath.gamma(mpmath.mpf(n + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n) / 2))
        for ri, got in zip(r, phi):
            x = mpmath.mpf(ri) ** 2 / 2
            exact = norm * mpmath.quad(lambda th: mpmath.cos(th) ** (n - 1), [mpmath.asin(x), mpmath.pi / 2])
            assert got == pytest.approx(float(exact), rel=0.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2])
def test_horizontal_rules_value_only_the_upper_half(monkeypatch, n):
    # the share is even in theta at a horizontal center: every angle valued
    # has sin(theta) > 0, and the lower half is their mirror image
    seen = []
    share = quad._disc_share

    def record(r, eta2, w, geo, n):
        seen.append(np.asarray(w).ravel())
        return share(r, eta2, w, geo, n)

    monkeypatch.setattr(quad, "_disc_share", record)
    gp = GroupParams(n)
    quad._built_rule.cache_clear()  # a cached rule would evaluate nothing
    for scale, R in ((1.0, 1.0), (0.25, 1.0), (4.0, 0.01), (1.0, 100.0)):
        seen.clear()
        rule = quad.ball_rule(_center(n, 1.0, 0.0, scale), R, gp)
        w = np.concatenate(seen)
        assert w.size > 0 and np.all(w > 0.0)
        assert _rule_volume(rule, gp) == pytest.approx(gp.Omega_Q * R**gp.Q, rel=1e-10)


def test_ball_rule_touching_horizontal_cell_with_singular_content():
    # |a| = R = 1 at n = 1 (Q = 4) with Q + exponent = 0.75: the share at
    # radius r is (2/pi^2) int arccos(min(k, 1)) dtheta over theta in
    # [0, pi/2], k = r (6 p^2 + r^2) / (4 p (1 + r^4 + 2 r^2 p^2)^(1/2)),
    # p = cos(theta)^(1/2); the ball holds no direction with p below the
    # kink p1 = r^3 / (2 + (4 + 2 r^4)^(1/2)).  Reference: 20-digit mpmath
    # with 24-node Gauss-Legendre panels, the end behaviors mapped out
    # (48 nodes agree to 3e-16).
    import mpmath

    n, exponent = 1, -3.25
    gp = GroupParams(n)
    rule = quad.ball_rule(_center(n, 1.0, 0.0), 1.0, gp)
    below = rule.r_in ** (gp.Q + exponent) / (gp.Q + exponent)
    value = rule.inner * below + float(rule.weights @ rule.nodes**exponent)

    with mpmath.workdps(20):
        nodes = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)

        def gauss(f, a, b):
            h = (b - a) / 2
            return h * mpmath.fsum(w * f(a + h * (1 + x)) for x, w in nodes)

        def share(r):
            def arc(p):
                k = r * (6 * p * p + r * r) / (4 * p * mpmath.sqrt(1 + r**4 + 2 * r * r * p * p))
                return mpmath.acos(min(k, 1))

            polar = lambda p: arc(p) * 2 * p / mpmath.sqrt(1 - p**4)  # dtheta = 2p dp / (1 - p^4)^(1/2)
            p1 = r**3 / (2 + mpmath.sqrt(4 + 2 * r**4))
            pz = mpmath.sqrt(mpmath.cos(mpmath.pi / 4))
            if p1 >= pz:  # only theta < theta1 = arccos(p1^2), with a square root at theta1
                th1 = mpmath.acos(p1**2)
                total = gauss(lambda v: arc(mpmath.sqrt(mpmath.cos(th1 * (1 - v * v)))) * 2 * th1 * v, 0, 1)
                return 2 * total / mpmath.pi**2
            # p in [p1, pz] on panels growing 8-fold, the first mapped by its square root at p1
            top = min(pz, 8 * p1)
            total = gauss(lambda u: polar(p1 + (top - p1) * u * u) * 2 * (top - p1) * u, 0, 1)
            while top < pz:
                lo, top = top, min(pz, 8 * top)
                total += gauss(polar, lo, top)
            total += gauss(lambda th: arc(mpmath.sqrt(mpmath.cos(th))), 0, mpmath.pi / 4)
            return 2 * total / mpmath.pi**2

        w = gp.Q - 1 + mpmath.mpf(exponent)  # -1/4
        exact = gp.omega_Q * (
            gauss(lambda v: share(v**4 / 2) * 4 * v * v / mpmath.mpf(2) ** 0.75, 0, 1)  # r = v^4 / 2
            + gauss(lambda r: share(r) * r**w, mpmath.mpf(1) / 2, mpmath.mpf(3) / 2)
            + gauss(lambda u: share(2 - u * u / 2) * (2 - u * u / 2) ** w * u, 0, 1)  # r = 2 - u^2 / 2
        )
    assert value == pytest.approx(float(exact), rel=1e-12)


def test_leggauss_matches_numpy_nodes_and_exact_weights():
    # Newton on the three-term recurrence: nodes within 2 ulp of numpy's
    # eigenvalue rule and exactly symmetric; weights within 1e-14 of their
    # 40-digit values (numpy's own are off by up to 1.2e-13 at k = 24)
    import mpmath

    for k in (12, 24):
        x, w = quad.leggauss(k)
        xn, wn = np.polynomial.legendre.leggauss(k)
        assert np.all(np.abs(x - xn) <= 2 * np.spacing(np.abs(xn)))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert not (x.flags.writeable or w.flags.writeable)  # shared by every caller
        assert np.allclose(w, wn, rtol=2e-13, atol=0.0)
        with mpmath.workdps(40):
            for xi, wi in zip(x, w):
                root = mpmath.findroot(lambda s: mpmath.legendre(k, s), mpmath.mpf(xi))
                exact = 2 * (1 - root**2) / (k * mpmath.legendre(k - 1, root)) ** 2
                assert wi == pytest.approx(float(exact), rel=1e-14)
