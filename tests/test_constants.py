import math

import mpmath
import numpy as np
import pytest

from hlp_sharp.constants import (
    SharpConstant,
    beta_recursion_Im,
    classical_anchors,
    hilbert_closed_form,
    hlp_closed_form,
    reconcile,
)
from hlp_sharp.hgroup import GroupParams
from hlp_sharp.params import ExponentSet, ParamSet, derive_exponents, validate
from hlp_sharp.report import VerificationReport

from conftest import make_admissible
from test_quad import FROZEN_A2, FROZEN_B2, bilinear_exponents


def test_classical_anchor_values():
    a, b = classical_anchors(2.0)
    assert a == 4.0
    assert b == pytest.approx(math.pi, rel=1e-15)
    a, b = classical_anchors(3.0)
    assert a == 4.5
    assert b == pytest.approx(math.pi / math.sin(math.pi / 3.0), rel=1e-15)
    with pytest.raises(ValueError):
        classical_anchors(1.0)
    with pytest.raises(ValueError):
        classical_anchors(0.5)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 5.0])
def test_m1_constants_reduce_to_the_anchors(q, gp1):
    Q = gp1.Q
    e = ExponentSet(sigma_list=(-Q / q,), sigma=-Q / q)
    anchor_a, anchor_b = classical_anchors(q)
    assert hlp_closed_form(e, gp1).value == pytest.approx(
        gp1.Omega_Q * anchor_a, rel=1e-14
    )
    assert hilbert_closed_form(e, gp1).value == pytest.approx(
        gp1.Omega_Q * anchor_b, rel=1e-13
    )


def test_bilinear_example_matches_frozen_values(gp1):
    e = bilinear_exponents()
    assert hlp_closed_form(e, gp1).value == pytest.approx(FROZEN_A2, rel=1e-12)
    assert hilbert_closed_form(e, gp1).value == pytest.approx(FROZEN_B2, rel=1e-12)


def test_hlp_closed_form_explicit_product(gp2):
    # Hand-evaluated A_3 on H^2 (Q = 6).
    e = ExponentSet(sigma_list=(-1.0, -2.0, -0.5), sigma=-3.5)
    expected = 3.0 * 6.0 * gp2.omega_Q**3 / (3.5 * 5.0 * 4.0 * 5.5)
    assert hlp_closed_form(e, gp2).value == pytest.approx(expected, rel=1e-15)


def test_hilbert_closed_form_explicit_product(gp1):
    e = ExponentSet(sigma_list=(-1.0, -2.0), sigma=-3.0)
    expected = (
        gp1.Omega_Q**2
        * math.gamma(1.0 - 0.25)
        * math.gamma(1.0 - 0.5)
        * math.gamma(0.75)
        / math.gamma(2.0)
    )
    assert hilbert_closed_form(e, gp1).value == pytest.approx(expected, rel=1e-13)


def test_constants_are_permutation_invariant_bitwise(gp1):
    rng = np.random.default_rng(17)
    from itertools import permutations

    for _ in range(3):
        sig = tuple(float(s) for s in -rng.uniform(0.3, 3.0, size=3))
        sigma = float(-rng.uniform(0.5, 2.0))
        values_a = set()
        values_b = set()
        for perm in permutations(sig):
            e = ExponentSet(sigma_list=perm, sigma=sigma)
            values_a.add(hlp_closed_form(e, gp1).value)
            values_b.add(hilbert_closed_form(e, gp1).value)
        assert len(values_a) == 1
        assert len(values_b) == 1


def test_inadmissible_exponents_raise(gp1):
    with pytest.raises(ValueError, match="inadmissible exponents"):
        hlp_closed_form(ExponentSet(sigma_list=(-0.5,), sigma=0.25), gp1)
    with pytest.raises(ValueError, match="Q\\+sigma_j>0 violated"):
        hilbert_closed_form(ExponentSet(sigma_list=(-4.5,), sigma=-1.0), gp1)


def test_sharp_constant_validation():
    with pytest.raises(ValueError):
        SharpConstant(kind="other", value=1.0)
    with pytest.raises(ValueError):
        SharpConstant(kind="hlp", value=-1.0)
    with pytest.raises(ValueError):
        SharpConstant(kind="hlp", value=math.inf)


def test_hilbert_rejects_huge_m(gp1):
    sig = tuple([-0.001] * 170)
    e = ExponentSet(sigma_list=sig, sigma=-0.17)
    with pytest.raises(ValueError, match="m < 170"):
        hilbert_closed_form(e, gp1)


def test_beta_recursion_unrolls_to_beta_factors():
    # m = 2 with a = (7/8, 7/8), i.e. offsets -1/8, and s = 2:
    # I_2 = B(7/8, 2 - 7/8) * B(7/8, (2 - 7/8) - 7/8)
    got = beta_recursion_Im((-0.125, -0.125), 2.0)
    expected = (math.gamma(0.875) * math.gamma(1.125) / math.gamma(2.0)) * (
        math.gamma(0.875) * math.gamma(0.25) / math.gamma(1.125)
    )
    assert got == pytest.approx(expected, rel=1e-13)


def test_beta_recursion_matches_gamma_product_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        a = rng.uniform(0.05, 0.95, size=m)
        s = float(a.sum() + rng.uniform(0.05, 2.0))
        got = beta_recursion_Im(tuple(a - 1.0), s)
        log_expected = (
            sum(math.lgamma(v) for v in a)
            + math.lgamma(s - float(a.sum()))
            - math.lgamma(s)
        )
        assert got == pytest.approx(math.exp(log_expected), rel=1e-12)


def test_beta_recursion_rejects_nonpositive_arguments():
    with pytest.raises(ValueError, match="nonpositive Beta argument"):
        beta_recursion_Im((0.5, 0.0), 2.0)  # a = (1.5, 1.0)
    with pytest.raises(ValueError, match="nonpositive Beta argument"):
        beta_recursion_Im((-1.5,), 2.0)  # a = -0.5


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("gap", [1e-2, 1e-5])
def test_beta_recursion_near_sigma_zero_matches_mpmath(gp1, m, gap):
    # -sigma/Q = gap, split unevenly over the factors; mpmath at 30 digits
    # referees the recursion and the closed form on the same double inputs.
    Q = gp1.Q
    sigma = -gap * Q
    shares = (0.8, 0.2) if m == 2 else (2.0, -1.5, 0.5)
    e = ExponentSet(sigma_list=tuple(c * sigma for c in shares), sigma=sigma)
    offsets = [s / Q for s in e.sigma_list]
    with mpmath.workdps(30):
        exact = mpmath.mpf(gp1.Omega_Q) ** m / mpmath.gamma(m)
        for d in offsets:
            exact *= mpmath.gamma(1 + mpmath.mpf(d))
        exact *= mpmath.gamma(-mpmath.fsum(mpmath.mpf(d) for d in offsets))
        exact = float(exact)
    recursed = gp1.Omega_Q**m * beta_recursion_Im(offsets, float(m))
    closed = hilbert_closed_form(e, gp1).value
    assert recursed == pytest.approx(exact, rel=1e-14)
    assert closed == pytest.approx(exact, rel=1e-14)
    assert abs(recursed - closed) <= 1e-12 * closed


# Boundary-band draws of the benchmark (perfbench/workloads.band_draws,
# margin 1e-6..1e-2) whose hilbert-recursion-identity record missed 1e-12,
# first while the recursion carried a running sum of the peeled offsets and
# then, for the last two, while each offset sigma_j/Q was rounded before the
# sum: (seed, m, n, q, q_j, lambda, gamma_j, alpha).
_BAND_RECURSION_DRAWS = [
    (3, 4, 2, 3.286292055619861,
     (14.276788314632558, 9.328921412595104, 9.542780516623969, 44.91199890211542),
     -0.26816978140072384,
     (-3.9998145541571124, 0.31223258227181727, -0.2846395122881362, -1.4160107505681996),
     -0.8472523658546653),
    (6, 3, 1, 1.8368663144359063, (8.200818092596851, 4.341605423721882, 5.204624123668804),
     -0.14403768419107957, (-2.9640814728286156, 1.1692487483317673, 1.1243201305483073),
     0.527236301325547),
    # -sigma/Q is ~1e-5 here: rounding each sigma_j/Q on its own moved
    # Gamma(-sigma/Q) by ~1e-12
    (4, 3, 2, 1.4631013604002985, (2.7098599487316286, 8.224748769248885, 5.184768982561155),
     -0.34998790339141095, (-1.2514559047420557, -2.241244390407156, 0.6053954145221283),
     0.3791660666554231),
    (6, 3, 2, 1.3089226101359146, (9.434110489722205, 3.093501210995626, 2.987478385637025),
     -0.6765873238793497, (0.4415476882790057, -5.889543749237763, 0.220105587943475),
     0.7491009283286028),
]


@pytest.mark.parametrize("draw", range(len(_BAND_RECURSION_DRAWS)))
def test_beta_recursion_on_boundary_band_draws(draw):
    # Each Beta argument is one fsum of the peeled sigma_j divided by Q once,
    # so the recursion matches mpmath on its own double inputs to ~1e-14 and
    # its last argument is the closed form's -sigma/Q: every record passes
    # its 1e-12 tolerance.
    seed, m, n, q, q_list, lam, gammas, alpha = _BAND_RECURSION_DRAWS[draw]
    p = ParamSet(
        m=m, n=n, q=q, q_list=q_list, lam=lam, lam_list=tuple(q * lam / qj for qj in q_list),
        gamma_list=gammas, alpha=alpha,
    )
    gp = GroupParams(n)
    e = derive_exponents(p)
    Q = mpmath.mpf(gp.Q)
    with mpmath.workdps(40):
        sig = [mpmath.mpf(s) for s in e.sigma_list]
        exact = mpmath.mpf(1) / mpmath.gamma(m)
        for s in sig:
            exact *= mpmath.gamma(1 + s / Q)
        exact = float(exact * mpmath.gamma(-mpmath.fsum(sig) / Q))
    recursion = beta_recursion_Im(e.sigma_list, float(m), scale=gp.Q)
    assert recursion == pytest.approx(exact, rel=1e-14)
    closed = hilbert_closed_form(e, gp).value
    assert abs(gp.Omega_Q**m * recursion - closed) <= 1e-12 * closed


def test_reconcile_produces_passing_reports(gp1, quad_spec):
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
    for kind, frozen in (("hlp", FROZEN_A2), ("hilbert", FROZEN_B2)):
        rep = reconcile(p, kind, gp=gp1, spec=quad_spec)
        assert isinstance(rep, VerificationReport)
        assert rep.label == f"{kind}-constant m=2 n=1"
        assert rep.passed
        assert rep.closed_form == pytest.approx(frozen, rel=1e-12)
        assert rep.oracle == pytest.approx(frozen, rel=1e-8)
        assert rep.tolerance == 1e-6
        assert "convention" in rep.convention_note

    with pytest.raises(ValueError, match="unknown constant kind"):
        reconcile(p, "other", gp=gp1, spec=quad_spec)


def test_closed_forms_trace_the_oracle_on_random_admissible_sets(gp1, quad_spec):
    # A quick spot check here; the acceptance suite sweeps more draws.
    rng = np.random.default_rng(99)
    for _ in range(3):
        p = make_admissible(rng, m=2, n=1)
        rep_a = reconcile(p, "hlp", gp=gp1, spec=quad_spec)
        rep_b = reconcile(p, "hilbert", gp=gp1, spec=quad_spec)
        assert rep_a.passed, rep_a.rel_err
        assert rep_b.passed, rep_b.rel_err


def _boundary_set(m, n, side, margin):
    """An admissible set at distance margin from one end of admissibility:
    q = 2, lambda = -1/4, equal q_j and lambda_j, gamma_j spread by 0.3, and
    gamma_1 solved so that -sigma (side "sigma") or Q + sigma_1 (side
    "sigma_j") equals margin up to rounding."""
    Q, q, lam = 2 * n + 2, 2.0, -0.25
    gammas = [0.3 * (j - (m - 1) / 2) for j in range(m)]
    if side == "sigma":
        gammas[0] = q * (Q * lam + margin) - sum(gammas[1:])
    else:
        gammas[0] = q * (Q * lam / m + Q - margin)
    return ParamSet(m=m, n=n, q=q, q_list=(q * m,) * m, lam=lam, lam_list=(lam / m,) * m,
                    gamma_list=tuple(gammas))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracles_certify_up_to_the_boundary_or_say_they_cannot(n, quad_spec):
    # Both ends of admissibility, -sigma -> 0 and Q + sigma_j -> 0, at
    # margins 1e-2 .. 1e-10 for m = 1-4.  Every record either passes with an
    # oracle within 1e-7 of 40-digit A_m / B_m, or carries a NaN oracle and
    # says that the 1-D engine could not certify; none is a failed record
    # with a finite oracle.  Margins down to 1e-4 always certify.  The three
    # n take ~0.05 s together.
    gp = GroupParams(n)
    Q = mpmath.mpf(gp.Q)
    for m in (1, 2, 3, 4):
        for side in ("sigma", "sigma_j"):
            for margin in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
                p = _boundary_set(m, n, side, margin)
                assert validate(p).ok
                sig = derive_exponents(p).sigma_list
                with mpmath.workdps(40):
                    s = [mpmath.mpf(x) for x in sig]
                    omega = mpmath.mpf(gp.Omega_Q)
                    exact = {
                        "hlp": m * Q * (Q * omega) ** m
                        / (-mpmath.fsum(s) * mpmath.fprod(Q + x for x in s)),
                        "hilbert": omega**m * mpmath.fprod(mpmath.gamma(1 + x / Q) for x in s)
                        * mpmath.gamma(-mpmath.fsum(s) / Q) / mpmath.gamma(m),
                    }
                for kind, ref in exact.items():
                    rep = reconcile(p, kind, gp=gp, spec=quad_spec)
                    case = (m, side, margin, kind, rep.convention_note)
                    if rep.passed:
                        assert abs(rep.oracle / ref - 1) <= 1e-7, case
                    else:
                        assert margin < 1e-4 and math.isnan(rep.oracle), case
                        assert rep.convention_note.startswith(
                            "oracle could not certify: integral near "), case
