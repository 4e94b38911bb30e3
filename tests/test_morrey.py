import dataclasses
import io
import json
import math

import numpy as np
import pytest

from hlp_sharp.hgroup import GroupParams, HPoint, dilate_arrays, hnorm_arrays
import hlp_sharp.cli as cli
import hlp_sharp.morrey as morrey
import hlp_sharp.quad as quad
from hlp_sharp.morrey import (
    BallGrid,
    MorreyEstimate,
    MorreySpaceSpec,
    default_grid,
    morrey_norm,
    power_norm,
    sharpness_ratio,
    source_space,
    verify_dilation,
)
from hlp_sharp.operators import RadialProfile, extremizer_profile
from hlp_sharp.params import ParamSet, derive_exponents, validate
from hlp_sharp.quad import DivergenceError, mc_ball_integral

SEED = 11  # echoed into the records, moves no value


def small_grid(n=1, radii=(0.5, 2.0, 8.0), center_radii=(0.0, 1.0)):
    d = 2 * n + 1
    horiz = [0.0] * d
    horiz[0] = 1.0
    return BallGrid(
        center_radii=center_radii,
        center_directions=(HPoint(tuple(horiz)),),
        radii=radii,
    )


# ---------------------------------------------------------------------------
# Specs and grids
# ---------------------------------------------------------------------------


def test_space_spec_validation():
    s = MorreySpaceSpec(q=2.0, lam=-0.25, alpha=1.0, gamma_w=-0.5)
    s.check_weights(4.0)
    with pytest.raises(ValueError):
        MorreySpaceSpec(q=0.5, lam=-0.25)
    with pytest.raises(ValueError):
        MorreySpaceSpec(q=2.0, lam=0.0)
    with pytest.raises(ValueError):
        MorreySpaceSpec(q=2.0, lam=-0.75)
    with pytest.raises(ValueError):
        MorreySpaceSpec(q=2.0, lam=-0.25, alpha=-4.0).check_weights(4.0)
    with pytest.raises(ValueError):
        MorreySpaceSpec(q=2.0, lam=-0.25, gamma_w=-5.0).check_weights(4.0)


def test_ball_grid_validation():
    with pytest.raises(ValueError):
        small_grid(center_radii=(1.0, 2.0))  # origin missing
    with pytest.raises(ValueError):
        small_grid(radii=(2.0, 0.5))  # descending
    with pytest.raises(ValueError):
        small_grid(radii=(-1.0, 2.0))
    with pytest.raises(ValueError):
        BallGrid(
            center_radii=(0.0, 1.0),
            center_directions=(HPoint((2.0, 0.0, 0.0)),),  # not unit norm
            radii=(1.0,),
        )
    with pytest.raises(ValueError):
        BallGrid(center_radii=(0.0,), center_directions=(), radii=(1.0,))


def test_ball_grid_scaling():
    g = small_grid()
    h = g.scaled(4.0)
    assert h.center_radii == (0.0, 4.0)
    assert h.radii == (2.0, 8.0, 32.0)
    assert h.center_directions == g.center_directions
    with pytest.raises(ValueError):
        g.scaled(0.0)


def test_default_grid_shape():
    g = default_grid(2)
    assert g.center_radii == (0.0, 0.25, 1.0, 4.0)
    assert len(g.center_directions) == 2
    assert len(g.radii) == 17
    assert g.radii[0] == pytest.approx(1e-2) and g.radii[-1] == pytest.approx(1e2)
    assert all(d.n == 2 for d in g.center_directions)


def test_default_grid_is_one_shared_read_only_object():
    g = default_grid(2)
    assert default_grid(2) is g
    assert default_grid(1) is not g
    for d in g.center_directions:
        with pytest.raises(ValueError, match="read-only"):
            d.coords[0] = 5.0
    assert [d.coords.tolist() for d in g.center_directions] == [
        [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]
    ]


# ---------------------------------------------------------------------------
# Norm estimator
# ---------------------------------------------------------------------------


def test_norm_reduces_to_lq_at_endpoint_lambda(gp1):
    # lambda = -1/q makes the ball prefactor trivial, so the norm is the
    # global L^q norm, attained exactly by the largest origin ball.
    f = RadialProfile.power(-0.5, 0.5, 2.0)
    space = MorreySpaceSpec(q=2.0, lam=-0.5)
    est = morrey_norm(f, space, small_grid(), gp1)
    exact = math.sqrt(gp1.omega_Q * (2.0**3 - 0.5**3) / 3.0)
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert est.argmax_center_radius == 0.0
    assert isinstance(est, MorreyEstimate)


def test_norm_is_positively_homogeneous(gp1):
    f = RadialProfile.power(-0.5, 0.5, 2.0)
    space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=0.5, gamma_w=-0.25)
    f3 = RadialProfile.power(-0.5, 0.5, 2.0, amplitude=3.0)
    base = morrey_norm(f, space, small_grid(), gp1)
    scaled = morrey_norm(f3, space, small_grid(), gp1)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-13)
    assert scaled.argmax_R == base.argmax_R


def test_norm_of_zero_profile_is_zero(gp1):
    zero = RadialProfile.power(0.0, amplitude=0.0)
    space = MorreySpaceSpec(q=2.0, lam=-0.25)
    est = morrey_norm(zero, space, small_grid(), gp1)
    assert est.value == 0.0


def test_norm_divergence_condition_names(gp1):
    space = MorreySpaceSpec(q=2.0, lam=-0.25)
    with pytest.raises(DivergenceError) as exc:
        morrey_norm(RadialProfile.power(-2.0), space, small_grid(), gp1)
    assert any("Q+sigma_j>0 violated" in c for c in exc.value.conditions)


def test_norm_grows_monotonically_under_grid_append(gp1):
    f = RadialProfile.power(-0.5, 0.5, 2.0)
    space = MorreySpaceSpec(q=2.0, lam=-0.3, gamma_w=-0.25)
    small = small_grid(radii=(1.0, 5.0))
    bigger_r = small_grid(radii=(1.0, 5.0, 50.0))
    more_centers = small_grid(radii=(1.0, 5.0), center_radii=(0.0, 1.0, 4.0))
    est = morrey_norm(f, space, small, gp1)
    est_r = morrey_norm(f, space, bigger_r, gp1)
    est_c = morrey_norm(f, space, more_centers, gp1)
    # every cell is exact and valued the same on any grid that holds it, so
    # the sup over a superset is exactly >=
    assert est_r.value >= est.value
    assert est_c.value >= est.value


def test_norm_estimates_are_deterministic(gp1):
    f = RadialProfile.power(-1.1)
    space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=1.2, gamma_w=-0.8)
    a = morrey_norm(f, space, small_grid(), gp1)
    b = morrey_norm(f, space, small_grid(), gp1)
    assert a == b


def test_a_non_finite_cell_raises_rather_than_drop_out_of_the_max(gp1):
    # the content of f = 1 in B(0, 1e100) is ~1e400, inf in double precision,
    # while its ball weight ~1e100 (alpha = 1 - Q) is finite; max() would skip
    # a NaN cell, and an inf cell would pass as the norm
    space = MorreySpaceSpec(q=2.0, lam=-0.3, alpha=-3.0)
    grid = small_grid(radii=tuple(np.geomspace(1.0, 1e100, 3)), center_radii=(0.0,))
    with pytest.raises(ValueError, match=r"B\(\|a\|=0, R=1e\+100\) is not finite"):
        morrey_norm(RadialProfile.power(0.0), space, grid, gp1)


@pytest.mark.parametrize("radii", [(1e-2, 1.0), (1.0, 100.0)], ids=["underflow", "overflow"])
def test_a_ball_weight_out_of_range_raises_naming_the_cell(radii, gp1):
    # w_1 = int_B |x|^160 is positive and finite for every ball: at R = 1e-2
    # it underflows to 0, and at R = 100 its Python-float power overflows
    space = MorreySpaceSpec(q=2.0, lam=-0.49, alpha=160.0)
    for center_radii in ((0.0,), (0.0, 4.0)):
        grid = small_grid(radii=radii, center_radii=center_radii)
        with pytest.raises(ValueError, match=r"B\(\|a\|=\d+, R=\S+\) is not finite in double precision"):
            morrey_norm(RadialProfile.power(-0.5), space, grid, gp1)


# ---------------------------------------------------------------------------
# No random draw in the cells of a radial profile
# ---------------------------------------------------------------------------


def _forbid_random_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random draw in a Morrey cell")

    monkeypatch.setattr(quad, "keyed_rng", refuse)


def test_profile_norms_and_dilation_draw_nothing(monkeypatch, gp1):
    # every cell kind of the default grid: horizontal and vertical centers,
    # balls that hold, touch and miss the origin, alpha of both signs
    _forbid_random_draws(monkeypatch)
    grid = default_grid(1)
    f = RadialProfile.power(-1.1)
    space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=1.2, gamma_w=-0.8)
    assert morrey_norm(f, space, grid, gp1).value > 0.0
    reports = verify_dilation(f, [0.5, 2.0], space, grid, gp1, SEED)
    assert all(r.passed for r in reports)
    truncated = RadialProfile.power(-1.1, 1e-2, 1e2)
    est = morrey_norm(truncated, MorreySpaceSpec(q=2.0, lam=-0.3, alpha=-1.0), grid, gp1)
    assert est.value > 0.0


def test_random_draw_guard_trips_on_monte_carlo_cells(monkeypatch, gp1, mc_small):
    # the guard trips on a Monte Carlo ball integral of a profile integrand
    # on an off-center ball, plain and tilted
    _forbid_random_draws(monkeypatch)
    f = RadialProfile.power(-1.1)
    integrand = lambda X: f(hnorm_arrays(X, 1))
    center = HPoint((1.0, 0.0, 0.0))
    for R, tilt in ((0.5, 0.0), (2.0, -1.1)):
        with pytest.raises(AssertionError, match="random draw"):
            mc_ball_integral(integrand, center, R, gp1, mc_small, origin_exponent=tilt)


# ---------------------------------------------------------------------------
# Dilation covariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_verify_dilation_passes_on_weighted_space(t, gp1):
    f = RadialProfile.power(-1.1)
    space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=1.2, gamma_w=-0.8)
    [rep] = verify_dilation(f, [t], space, small_grid(), gp1, SEED)
    assert rep.label == f"verify-dilation t={t:g}"
    assert rep.closed_form == 1.0
    assert rep.tolerance == 1e-10
    assert rep.passed, rep.rel_err
    assert "sigma_space" in rep.convention_note
    assert rep.seed == SEED


def test_verify_dilation_at_a_factor_off_the_binary_grid_with_singular_content():
    # t = 3 rounds every dilated radius; the default grid's cells |a| = R = 1
    # have the origin on their boundary, where a content exponent of
    # q*sigma + gamma_w = -7.25 (Q = 8) puts most of the content
    gp = GroupParams(3)
    f = RadialProfile.power(-3.276677790267024)
    space = MorreySpaceSpec(
        q=1.5900632028485502, lam=-0.577286454500942,
        alpha=-1.574919082991559, gamma_w=-2.0380459079098676,
    )
    [rep] = verify_dilation(f, [3.0], space, default_grid(3), gp, SEED)
    assert rep.passed, rep.rel_err


def test_verify_dilation_rejects_bad_factor(gp1):
    f = RadialProfile.power(-1.1)
    space = MorreySpaceSpec(q=2.0, lam=-0.25)
    for factors in ([0.0], [2.0, -1.0]):
        with pytest.raises(ValueError, match="dilation factors must be positive"):
            verify_dilation(f, factors, space, small_grid(), gp1, SEED)


def test_verify_dilation_one_call_matches_single_factor_calls(gp1):
    # the base grid is valued once for all factors; every record equals the
    # one a single-factor call gives, apart from its runtime
    f = RadialProfile.power(-1.1)
    space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=1.2, gamma_w=-0.8)
    factors = (0.5, 2.0, 10.0)
    joint = verify_dilation(f, factors, space, small_grid(), gp1, SEED)
    single = [verify_dilation(f, [t], space, small_grid(), gp1, SEED)[0] for t in factors]
    untimed = lambda reps: [dataclasses.replace(r, runtime_ms=0) for r in reps]
    assert untimed(joint) == untimed(single)
    assert [r.label for r in joint] == [f"verify-dilation t={t:g}" for t in factors]


# ---------------------------------------------------------------------------
# Sharpness experiment
# ---------------------------------------------------------------------------


def strict_params_m1():
    return ParamSet(
        m=1,
        n=1,
        q=2.0,
        q_list=(2.0,),
        lam=-0.25,
        lam_list=(-0.25,),
        gamma_list=(0.0,),
        alpha=0.0,
    )


def test_sharpness_ratio_report(gp1):
    p = strict_params_m1()
    rep = sharpness_ratio("hlp", p, (1e-1, 1e1), default_grid(1), SEED)
    assert rep.label == "sharpness hlp m=1 truncation=(0.1,10)"
    assert "ratio/constant" in rep.convention_note
    ratio_over_constant = rep.oracle / rep.closed_form
    assert 0.5 < ratio_over_constant <= 1.0 + 1e-3
    assert rep.seed == SEED


def test_sharpness_requires_strict_parameters():
    p = ParamSet(
        m=1,
        n=1,
        q=2.0,
        q_list=(2.0,),
        lam=-0.25,
        lam_list=(-0.5,),  # endpoint: valid in the closed interval, not strictly
        gamma_list=(0.0,),
        alpha=0.0,
    )
    with pytest.raises(ValueError, match="sharpness requires strict parameters"):
        sharpness_ratio("hlp", p, (1e-1, 1e1), default_grid(1), SEED)


def test_sharpness_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown operator kind"):
        sharpness_ratio("other", strict_params_m1(), (1e-1, 1e1), default_grid(1), SEED)


@pytest.mark.parametrize(
    "q_list, lam_list, norms",
    [((4.0, 4.0), (-0.125, -0.125), 1), ((3.0, 6.0), (-1.0 / 6.0, -1.0 / 12.0), 2)],
    ids=["identical", "distinct"],
)
def test_sharpness_ratio_one_norm_per_distinct_factor(monkeypatch, q_list, lam_list, norms):
    # neither the numerator nor the denominators take a grid norm; each
    # factor's norm is power_norm's closed form, and coincident factors
    # share one value
    def no_grid_norm(*args):
        raise AssertionError("grid norm valued")

    seen = []

    def counting_power_norm(p, j, gp):
        seen.append(power_norm(p, j, gp))
        return seen[-1]

    monkeypatch.setattr(morrey, "morrey_norm", no_grid_norm)
    monkeypatch.setattr(morrey, "power_norm", counting_power_norm)
    p = ParamSet(
        m=2, n=1, q=2.0, q_list=q_list, lam=-0.25, lam_list=lam_list,
        gamma_list=(0.0, 0.0), alpha=0.0,
    )
    rep = sharpness_ratio("hlp", p, (1e-2, 1e2), default_grid(1), SEED)
    assert len(seen) == 2 and len(set(seen)) == norms
    assert "certified lower bound" in rep.convention_note


@pytest.mark.parametrize("n", [1, 2])
def test_pure_power_cells_never_exceed_the_closed_norm(n):
    # bathtub principle: for a strict set no ball holds more of r^{sigma_j}
    # than a centered one, off-center and in a mixed direction too
    gp = GroupParams(n)
    g = default_grid(n)
    mixed = np.zeros(gp.dim)
    mixed[0] = mixed[-1] = 1.0
    grid = BallGrid(
        g.center_radii,
        (*g.center_directions, HPoint(dilate_arrays(2.0**-0.25, mixed, n))),
        g.radii[::8],
    )
    for flags in (
        ["--alpha", "-1"],
        ["--m", "2", "--qj", "3,6", "--alpha", "-0.5", "--gammaj", "0.3,-0.2"],
        ["--m", "2", "--q", "3", "--alpha", "-2.5"],
    ):
        p = cli.config_from_args(["--command", "verify-sharpness", "--n", str(n), *flags]).params
        assert validate(p, strict_sharpness=True).ok and p.alpha < 0.0
        e = derive_exponents(p)
        for j in range(1, p.m + 1):
            cell = morrey_norm(extremizer_profile(e, j), source_space(p, j), grid, gp)
            assert cell.value <= power_norm(p, j, gp) * (1.0 + 1e-10), (flags, j, cell)


def test_certified_values_take_no_grid_norm(monkeypatch, tmp_path):
    # the sharpness denominators and morrey-norm's exact value are closed
    # forms: no grid norm is valued for either, only morrey-norm's estimate
    def no_grid_norm(*args):
        raise AssertionError("grid norm valued")

    estimated = []

    def estimate(f, space, grid, gp):
        estimated.append(grid)
        return MorreyEstimate(value=1.0, argmax_center_radius=0.0, argmax_R=1.0)

    monkeypatch.setattr(morrey, "morrey_norm", no_grid_norm)
    monkeypatch.setattr(cli, "morrey_norm", estimate)
    p = ParamSet(
        m=2, n=1, q=2.0, q_list=(3.0, 6.0), lam=-0.25, lam_list=(-1.0 / 6.0, -1.0 / 12.0),
        gamma_list=(0.0, 0.0), alpha=-0.5,
    )
    rep = sharpness_ratio("hlp", p, (1e-2, 1e2), default_grid(1))
    assert "certified lower bound" in rep.convention_note
    config = cli.config_from_args(["--command", "morrey-norm", "--out", str(tmp_path / "r.jsonl")])
    assert cli.run(config, stream=io.StringIO()) in (0, 1)
    assert estimated == [config.grid]
    record = json.loads(open(config.output_path).read().splitlines()[1])
    assert record["closed_form"] == power_norm(config.params, 1, GroupParams(1))
