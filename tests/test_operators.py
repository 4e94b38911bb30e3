import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hlp_sharp
import mpmath
import numpy as np
import pytest

from hlp_sharp.cli import config_from_args
from hlp_sharp.hgroup import GroupParams
from hlp_sharp.morrey import power_norm, sharpness_ratio, source_space
from hlp_sharp.operators import (
    RadialProfile,
    _axis_rule,
    apply_radii,
    extremizer_profile,
)
from hlp_sharp.params import ExponentSet, derive_exponents
from hlp_sharp.quad import DivergenceError

from test_quad import FROZEN_A2, FROZEN_B2, bilinear_exponents
from hlp_sharp.constants import KINDS, hilbert_closed_form, hlp_closed_form

# apply_radii takes compact supports only; extremizers truncated this wide
# read their closed forms to 1e-10
WIDE = (1e-12, 1e12)


# ---------------------------------------------------------------------------
# Profile construction and pointwise semantics
# ---------------------------------------------------------------------------


def test_power_profile_layout():
    f = RadialProfile.power(-0.5, amplitude=2.0)
    assert f.segments == ((0.0, math.inf, 2.0, -0.5),)
    assert not f.is_zero
    assert f.support() == (0.0, math.inf)
    assert f.breakpoints() == ()
    assert RadialProfile.power(-0.5, amplitude=0.0).is_zero
    with pytest.raises(ValueError):
        RadialProfile.power(-0.5, amplitude=-1.0)


def test_truncated_power_profile_layout():
    f = RadialProfile.power(-1.0, 0.5, 2.0, amplitude=3.0)
    assert f.segments == ((0.5, 2.0, 3.0, -1.0),)
    assert f.support() == (0.5, 2.0)
    assert f.breakpoints() == (0.5, 2.0)
    assert RadialProfile.power(-1.0, 0.0, 2.0).segments == ((0.0, 2.0, 1.0, -1.0),)
    assert RadialProfile.power(-1.0, 0.5).segments == ((0.5, math.inf, 1.0, -1.0),)
    for r_min, r_max in ((-1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (math.nan, 2.0)):
        with pytest.raises(ValueError):
            RadialProfile.power(-1.0, r_min, r_max)


def test_segment_validation():
    with pytest.raises(ValueError):
        RadialProfile(((0.0, 1.0, 1.0, 0.0), (0.5, 2.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        RadialProfile(((1.0, 0.5, 1.0, 0.0),))
    with pytest.raises(ValueError):
        RadialProfile(((0.0, 1.0, -1.0, 0.0),))
    for bad in ((1.0, 2.0, math.inf, 0.0), (1.0, 2.0, math.nan, 0.0), (1.0, 2.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match=r"segment 1 on \[1, 2\)"):
            RadialProfile(((0.0, 0.5, 1.0, 0.0), bad))


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_unrepresentable_amplitudes_raise_instead_of_nan():
    # a drop from 1e-60 to 5e-108 over [40, 53) needs r^-387, whose
    # amplitude 1e-60 / 40^-387 overflows; it used to evaluate to NaN
    with pytest.raises(ValueError, match=r"segment 0 on \[40, 53\).*A = inf"):
        RadialProfile.tabulated((40.0, 53.0, 70.0), (1e-60, 5e-108, 1e-150))
    with pytest.raises(ValueError, match="dilated"):
        RadialProfile.power(-40.0).dilated(1e-10)
    with pytest.raises(ValueError, match="A = inf"):
        RadialProfile.power(-1.0, amplitude=1e300).dilated(1e-10)


def test_call_semantics_half_open_with_closed_last_edge():
    f = RadialProfile(((0.5, 1.0, 2.0, 0.0), (2.0, 3.0, 1.0, 1.0)))
    # scalar in, float out
    assert isinstance(f(0.75), float)
    assert f(0.4) == 0.0
    assert f(0.5) == 2.0  # left endpoint included
    assert f(1.0) == 0.0  # right endpoint excluded (gap follows)
    assert f(1.5) == 0.0  # gap
    assert f(2.0) == 2.0
    assert f(3.0) == 3.0  # closing edge of the last bounded segment
    assert f(3.5) == 0.0
    arr = f(np.array([0.4, 0.5, 1.0, 2.5, 3.0, 4.0]))
    assert isinstance(arr, np.ndarray)
    assert np.array_equal(arr, np.array([0.0, 2.0, 0.0, 2.5, 3.0, 0.0]))
    # 0-d array behaves like a scalar
    assert f(np.asarray(2.5)) == 2.5


def test_call_matches_segment_formula_elementwise():
    rng = np.random.default_rng(3)
    f = RadialProfile(((0.0, 0.3, 1.5, -0.25), (0.3, 2.0, 0.7, 1.2), (5.0, math.inf, 2.0, -3.0)))
    r = rng.uniform(0.01, 10.0, size=1000)
    expected = np.zeros_like(r)
    for lo, hi, A, p in f.segments:
        mask = (r >= lo) & (r < hi)
        expected[mask] = A * r[mask] ** p
    assert np.array_equal(f(r), expected)


def test_tabulated_recovers_power_data_exactly():
    knots = np.geomspace(0.1, 10.0, 12)
    values = 3.0 * knots**-1.5
    f = RadialProfile.tabulated(knots, values)
    assert f(knots) == pytest.approx(values, rel=1e-12)
    for lo, hi, A, p in f.segments:
        assert p == pytest.approx(-1.5, rel=1e-12)
        assert A == pytest.approx(3.0, rel=1e-12)
    mid = np.sqrt(knots[:-1] * knots[1:])
    assert f(mid) == pytest.approx(3.0 * mid**-1.5, rel=1e-12)
    # the support is the knot range
    assert f.support() == (0.1, 10.0)


def test_tabulated_zero_values_create_gaps():
    f = RadialProfile.tabulated((1.0, 2.0, 4.0), (1.0, 0.0, 2.0))
    assert f.is_zero  # both bracketing segments vanish
    g = RadialProfile.tabulated((1.0, 2.0, 4.0, 8.0), (1.0, 2.0, 0.0, 3.0))
    assert g(1.5) > 0.0
    assert g(3.0) == 0.0


def test_tabulated_validation():
    with pytest.raises(ValueError):
        RadialProfile.tabulated((1.0,), (1.0,))
    with pytest.raises(ValueError):
        RadialProfile.tabulated((2.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        RadialProfile.tabulated((1.0, 2.0), (1.0, -1.0))


# ---------------------------------------------------------------------------
# Closed-form calculus and algebra
# ---------------------------------------------------------------------------


def test_cumulative_closed_forms():
    f = RadialProfile.power(-1.0, 0.5, 2.0, amplitude=3.0)
    # int_0^r 3 s^(-1+3) ds: zero below the support, constant above it
    rr = np.array([0.25, 0.5, 1.5, 2.0, 5.0])
    expected = [0.0, 0.0, 1.5**3 - 0.5**3, 2.0**3 - 0.5**3, 2.0**3 - 0.5**3]
    assert f.cumulative(3.0, rr) == pytest.approx(expected, rel=1e-15)
    # logarithmic case p + k = -1
    assert f.cumulative(0.0, [1.0, 4.0]) == pytest.approx(3.0 * np.log([2.0, 4.0]), rel=1e-15)


def test_cumulative_divergence_token():
    with pytest.raises(DivergenceError) as exc:
        RadialProfile.power(-4.0).cumulative(3.0, np.array([1.0]))
    assert any("Q+sigma_j>0 violated" in c for c in exc.value.conditions)


def test_profile_algebra():
    f = RadialProfile(((0.25, 1.0, 2.0, -0.5), (1.0, 4.0, 3.0, 0.75)))
    r = np.geomspace(0.3, 3.9, 40)
    t = 1.7
    d = f.dilated(t)
    assert d(r) == pytest.approx(f(t * r), rel=1e-13)
    # support shrinks by 1/t
    assert d.support() == (0.25 / t, 4.0 / t)

    with pytest.raises(ValueError):
        f.dilated(0.0)


def test_dilated_is_exact_on_segment_data():
    # Dilation rescales segment data without resampling: dilating by t and
    # back by 1/t returns the amplitudes to within one multiplication pair.
    f = RadialProfile.power(-0.5, 0.5, 2.0, amplitude=3.0)
    g = f.dilated(2.0).dilated(0.5)
    assert g.support() == f.support()
    for (a_lo, a_hi, a_A, a_p), (b_lo, b_hi, b_A, b_p) in zip(f.segments, g.segments):
        assert (a_lo, a_hi, a_p) == (b_lo, b_hi, b_p)
        assert a_A == pytest.approx(b_A, rel=1e-15)


def test_extremizer_profile():
    e = bilinear_exponents()
    assert extremizer_profile(e, 1).segments == ((0.0, math.inf, 1.0, -0.5),)
    g = extremizer_profile(e, 2, truncation=(0.1, 10.0))
    assert g.segments == ((0.1, 10.0, 1.0, -0.5),)
    p = config_from_args(["--command", "verify-sharpness", "--m", "2"]).params
    gp = GroupParams(p.n)
    for j in (0, 3):
        # index 0 would read the last factor, p.q_list[-1]
        with pytest.raises(IndexError):
            extremizer_profile(e, j)
        with pytest.raises(IndexError, match="out of range 1..2"):
            source_space(p, j)
        with pytest.raises(IndexError, match="out of range 1..2"):
            power_norm(p, j, gp)


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


def test_apply_argument_validation(gp1):
    f = RadialProfile.power(-0.5, 0.1, 10.0)
    with pytest.raises(ValueError):
        apply_radii("other", [f], [1.0], gp1)
    with pytest.raises(ValueError):
        apply_radii("hlp", [f], [0.0], gp1)
    with pytest.raises(ValueError):
        apply_radii("hlp", [f], [1.0, -1.0], gp1)
    assert apply_radii("hlp", [RadialProfile.power(0.0, amplitude=0.0)], [1.0], gp1)[0] == 0.0
    assert np.array_equal(
        apply_radii("hilbert", [RadialProfile.power(0.0, amplitude=0.0)], [1.0, 2.0], gp1),
        np.zeros(2),
    )


def test_apply_m1_extremizer_reproduces_the_constants(gp1):
    sigma = -4.0 / 3.0  # q = 3 on H^1
    e = ExponentSet(sigma_list=(sigma,), sigma=sigma)
    f = RadialProfile.power(sigma, *WIDE)
    a1 = hlp_closed_form(e, gp1).value
    b1 = hilbert_closed_form(e, gp1).value
    for t in (0.5, 1.0, 7.0):
        assert apply_radii("hlp", [f], [t], gp1)[0] == pytest.approx(
            a1 * t**sigma, rel=1e-9
        )
        assert apply_radii("hilbert", [f], [t], gp1)[0] == pytest.approx(
            b1 * t**sigma, rel=1e-8
        )


def test_apply_m2_extremizers_match_frozen_constants(gp1):
    f = RadialProfile.power(-0.5, *WIDE)
    assert apply_radii("hlp", [f, f], [1.0], gp1)[0] == pytest.approx(
        FROZEN_A2, rel=1e-8
    )
    assert apply_radii("hilbert", [f, f], [1.0], gp1)[0] == pytest.approx(
        FROZEN_B2, rel=1e-11
    )


def test_apply_homogeneity_and_ordering(gp1):
    def truncated(p, amplitude):
        return RadialProfile.power(p, 0.1, 10.0, amplitude=amplitude)

    piecewise = RadialProfile(((0.2, 1.0, 1.0, -0.5), (1.0, 3.0, 2.0, 0.7)))
    radii = np.array([0.25, 1.0, 3.0])
    for kind in KINDS:
        for fs in ([truncated(-0.7, 1.0), truncated(-1.1, 1.0)], [piecewise, truncated(-1.1, 1.3)]):
            # the kernels are homogeneous of degree -mQ, so dilating every
            # factor by s dilates the output: T(f(s .))(t) = T(f)(s t)
            for s in (0.25, 3.0):
                dilated = apply_radii(kind, [f.dilated(s) for f in fs], radii, gp1)
                assert dilated == pytest.approx(apply_radii(kind, fs, s * radii, gp1), rel=1e-13)
            base = apply_radii(kind, fs, radii, gp1)
            assert apply_radii(kind, fs[::-1], radii, gp1) == pytest.approx(base, rel=1e-12)
        # amplitudes 2 and 3 scale the m-linear operator by 6
        unit, scaled = (
            apply_radii(kind, [truncated(-0.7, a1), truncated(-1.1, a2)], radii, gp1)
            for a1, a2 in ((1.0, 1.0), (2.0, 3.0))
        )
        assert scaled == pytest.approx(6.0 * unit, rel=1e-12)


def _brute_force_bilinear(kernel, f1, f2, t, gp, points=1600):
    """Independent radial-reduction reference: trapezoid on a log grid."""
    lo1, hi1 = f1.support()
    lo2, hi2 = f2.support()
    u = np.linspace(math.log(lo1), math.log(hi1), points)
    v = np.linspace(math.log(lo2), math.log(hi2), points)
    r = np.exp(u)
    s = np.exp(v)
    K = kernel(t, r[:, None], s[None, :])
    G = (f1(r) * r**gp.Q)[:, None] * (f2(s) * s**gp.Q)[None, :] * K
    wu = np.full(points, u[1] - u[0])
    wu[0] *= 0.5
    wu[-1] *= 0.5
    wv = np.full(points, v[1] - v[0])
    wv[0] *= 0.5
    wv[-1] *= 0.5
    return gp.omega_Q**2 * float(wu @ G @ wv)


def test_apply_truncated_profiles_match_brute_force(gp1):
    f1 = RadialProfile.power(-0.5, 0.1, 10.0)
    f2 = RadialProfile.power(-0.8, 0.2, 5.0, amplitude=1.3)
    t = 1.0

    got_hlp = apply_radii("hlp", [f1, f2], [t], gp1)[0]
    ref_hlp = _brute_force_bilinear(
        lambda t, r, s: np.maximum(np.maximum(r, s), t) ** (-2.0 * gp1.Q),
        f1,
        f2,
        t,
        gp1,
    )
    assert got_hlp == pytest.approx(ref_hlp, rel=2e-3)

    got_hil = apply_radii("hilbert", [f1, f2], [t], gp1)[0]
    ref_hil = _brute_force_bilinear(
        lambda t, r, s: (t**gp1.Q + r**gp1.Q + s**gp1.Q) ** (-2.0),
        f1,
        f2,
        t,
        gp1,
    )
    assert got_hil == pytest.approx(ref_hil, rel=2e-4)


def test_apply_radii_matches_pointwise_apply(gp1, quad_spec):
    f1 = RadialProfile.power(-0.5, 0.1, 10.0)
    f2 = RadialProfile.power(-0.5, 0.1, 10.0)
    radii = np.array([0.5, 1.0, 2.0])
    for kind in ("hlp", "hilbert"):
        vec = apply_radii(kind, [f1, f2], radii, gp1, quad_spec)
        point = np.array([apply_radii(kind, [f1, f2], [t], gp1)[0] for t in radii])
        assert vec == pytest.approx(point, rel=1e-10)
        assert apply_radii(kind, [f1, f2], [], gp1, quad_spec).size == 0


def _log_gauss(g, a, b):
    """20-node Gauss-Legendre on 16 log-uniform panels per decade of [a, b]."""
    x, w = np.polynomial.legendre.leggauss(20)
    count = max(1, math.ceil(16.0 * math.log10(b / a)))
    la = np.linspace(math.log(a), math.log(b), count + 1)
    half = 0.5 * np.diff(la)
    r = np.exp((la[:-1] + half)[:, None] + half[:, None] * x)
    return float(np.sum(w * half[:, None] * r * g(r.ravel()).reshape(r.shape)))


def _hlp_region_sum(profiles, t, gp):
    """Region decomposition over the argmax of (t, r_1, ..., r_m), one
    quadrature per region and radius: _log_gauss between t, the
    breakpoints and the support end.  The reference for the one-pass max
    kernel."""
    Q, m = gp.Q, len(profiles)
    k = Q - 1.0
    total = t ** (-m * Q)
    for f in profiles:
        total *= f.cumulative(k, t)[0]
    brk = sorted({b for f in profiles for b in f.breakpoints() if b > t})
    for i, f_i in enumerate(profiles):
        hi = f_i.support()[1]
        if hi <= t:
            continue
        others = [profiles[j] for j in range(m) if j != i]

        def g(r, f_i=f_i, others=others):
            fv = f_i(r)
            out = np.zeros_like(fv)
            mask = fv > 0.0
            if np.any(mask):
                rm = r[mask]
                acc = fv[mask]
                for other in others:
                    acc = acc * other.cumulative(k, rm)
                out[mask] = acc * rm ** (Q - 1.0 - m * Q)
            return out

        edges = [t] + [b for b in brk if b < hi] + [hi]
        total += sum(_log_gauss(g, a, b) for a, b in zip(edges[:-1], edges[1:]))
    return gp.omega_Q**m * total


def _default_exponents(m, n):
    p = config_from_args(["--command", "verify-sharpness", "--m", str(m), "--n", str(n)]).params
    return derive_exponents(p)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_hlp_tabulation_matches_region_sum_on_sharpness_net(m, n):
    gp = GroupParams(n=n)
    e = _default_exponents(m, n)
    profiles = [extremizer_profile(e, j + 1, truncation=(1e-2, 1e2)) for j in range(m)]
    knots = np.geomspace(1e-4, 114.4, 291)
    got = apply_radii("hlp", profiles, knots, gp)
    ref = np.array([_hlp_region_sum(profiles, t, gp) for t in knots])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12


def test_hlp_piecewise_matches_mpmath(gp1):
    f1 = RadialProfile(((0.2, 1.0, 1.0, -0.5), (1.0, 3.0, 2.0, 0.7)))
    f2 = RadialProfile.power(-1.2, 0.5, 4.0, amplitude=1.3)
    radii = [0.1, 0.7, 2.0, 5.0]
    got = apply_radii("hlp", [f1, f2], radii, gp1)
    Q = gp1.Q

    def value(f, r):
        return sum(A * r**p for lo, hi, A, p in f.segments if lo <= r < hi)

    def cumulative(f, r):
        return sum(
            A * (min(r, hi) ** (p + Q) - mpmath.mpf(lo) ** (p + Q)) / (p + Q)
            for lo, hi, A, p in f.segments
            if r > lo
        )

    with mpmath.workdps(30):
        for t, g in zip(radii, got):
            t = mpmath.mpf(t)
            edges = [t] + sorted({b for f in (f1, f2) for b in f.breakpoints() if b > t})

            def region(r):
                return (value(f1, r) * cumulative(f2, r) + value(f2, r) * cumulative(f1, r)) * r ** (
                    -Q - 1
                )

            tail = mpmath.quad(region, edges) if len(edges) > 1 else 0
            exact = mpmath.mpf(gp1.omega_Q) ** 2 * (
                t ** (-2 * Q) * cumulative(f1, t) * cumulative(f2, t) + tail
            )
            assert abs(g / exact - 1) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_apply_pure_extremizers_give_closed_form(m, n):
    # the default sets truncated to WIDE: both kernels reach the closed
    # form to 1e-10, so neither value is read off the constants
    gp = GroupParams(n=n)
    e = _default_exponents(m, n)
    profiles = [extremizer_profile(e, j + 1, truncation=WIDE) for j in range(m)]
    radii = np.array([0.3, 1.0, 7.0])
    for kind, closed_form in (("hlp", hlp_closed_form), ("hilbert", hilbert_closed_form)):
        got = apply_radii(kind, profiles, radii, gp)
        exact = closed_form(e, gp).value * radii**e.sigma
        assert got == pytest.approx(exact, rel=1e-10), kind


def _hilbert_tensor_sum(profiles, radii, gp):
    """Direct N^m sum of the sum kernel on the _axis_rule nodes."""
    Q, m = gp.Q, len(profiles)
    rules = [_axis_rule(f, gp) for f in profiles]
    u = sum(np.ix_(*[r**Q for r, _ in rules]))
    w = np.ones(())
    for _, wj in rules:
        w = np.multiply.outer(w, wj)
    return np.array([gp.omega_Q**m * np.sum(w * (t**Q + u) ** (-float(m))) for t in radii])


@pytest.mark.parametrize(
    "sigmas",
    [(-0.5, -0.8), (-0.3, -0.6, -0.9)],
    ids=["m2", "m3"],
)
def test_hilbert_contraction_matches_tensor_sum(gp1, sigmas):
    profiles = [
        RadialProfile.power(s, 0.2 + 0.1 * j, 5.0 - j, amplitude=1.0 + 0.5 * j)
        for j, s in enumerate(sigmas)
    ]
    radii = np.array([1e-3, 0.1, 0.7, 1.0, 3.0, 40.0])
    got = apply_radii("hilbert", profiles, radii, gp1)
    ref = _hilbert_tensor_sum(profiles, radii, gp1)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-13)


def test_hilbert_contraction_wide_truncation_stays_finite():
    # n = 3 (Q = 8), m = 4 and m = 8 over (1e-6, 1e6): the kernel and the
    # weights span ~100 decades, and the truncated integral is the
    # untruncated one to 1e-12, for both kinds.
    gp3 = GroupParams(n=3)
    radii = np.array([0.3, 1.0, 3.0])
    m4 = (-0.5, -0.8, -1.1, -0.6)
    for sigmas in (m4, m4 + (-0.9, -0.7, -1.0, -0.4)):
        profiles = [RadialProfile.power(s, 1e-6, 1e6) for s in sigmas]
        e = ExponentSet(sigmas, math.fsum(sigmas))
        for kind, closed_form in (("hlp", hlp_closed_form), ("hilbert", hilbert_closed_form)):
            got = apply_radii(kind, profiles, radii, gp3)
            exact = closed_form(e, gp3).value * radii**e.sigma
            assert np.all(np.isfinite(got))
            assert got == pytest.approx(exact, rel=1e-12), (kind, len(sigmas))


def test_apply_radii_rejects_non_compact_profiles(gp1):
    trunc = RadialProfile.power(-0.5, 0.1, 10.0)
    unbounded = (
        RadialProfile.power(-0.5),
        RadialProfile.power(-4.5),  # divergent at 0 as a pure power
        RadialProfile.power(1.0),  # divergent at infinity as a pure power
        RadialProfile.power(-0.5, 0.0, 10.0),
        RadialProfile.power(-0.5, 0.1),
    )
    for kind in KINDS:
        for f in unbounded:
            for profiles in ([f], [trunc, f], [f, trunc]):
                with pytest.raises(ValueError, match="truncate") as exc:
                    apply_radii(kind, profiles, [1.0], gp1)
                assert not isinstance(exc.value, DivergenceError)


# verify-sharpness --kind hilbert sets: argv, every 8th grid radius, and
# the record's ratio as the unblocked contraction gave it
_HILBERT_SETS = {
    "sharpness_small": (["--n", "1", "--m", "2", "--rmin", "1e-2", "--rmax", "1e2"], True, "0x1.a02b0d52ebcc2p+6"),
    "m3_lambda": (["--m", "3", "--lambda", "-0.05"], False, "0x1.de25d586a810dp+9"),
    "n3_m4": (["--n", "3", "--m", "4"], False, "0x1.e5e531ee703bep+9"),
    "wide": (["--m", "2", "--rmin", "1e-6", "--rmax", "1e6"], False, "0x1.a3549db28292fp+6"),
}

# Runs in a child with one BLAS thread: on several, the unblocked product
# may differ by an ulp where the threads' rows meet.  The lambda is the
# sum kernel's contraction before it ran in blocks.
_HILBERT_CHILD = """
import dataclasses, json, sys
import numpy as np
from hlp_sharp import morrey, operators
from hlp_sharp.cli import config_from_args

calls = []
real = morrey.apply_radii
morrey.apply_radii = lambda kind, profiles, radii, gp: calls.append((profiles, radii, gp)) or real(
    kind, profiles, radii, gp)
for argv, thin in json.loads(sys.argv[1]):
    cfg = config_from_args(["--command", "verify-sharpness", "--kind", "hilbert", *argv])
    grid = dataclasses.replace(cfg.grid, radii=cfg.grid.radii[::8]) if thin else cfg.grid
    morrey.sharpness_ratio("hilbert", cfg.params, cfg.truncation, grid)
# block seams: one row short of a block, a block, one more (which joins
# the last block) and the same after two and three blocks
rng = np.random.default_rng(35)
seams = []
for size_b in (40, 384, 1152):
    rows = max(8, operators._BLOCK_FLOATS // size_b // 8 * 8)
    for size_a in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows + 1, 2 * rows + 2):
        seams.append((np.exp(rng.uniform(-5.0, 5.0, size_a)), np.exp(rng.uniform(-5.0, 5.0, size_b)),
                      rng.uniform(0.0, 1.0, size_b)))
blocked = [operators.apply_radii("hilbert", *c) for c in calls] + [operators._exp_contract(*s) for s in seams]
operators._exp_contract = lambda a, b, w: np.exp(-np.outer(a, b)) @ w
unblocked = [operators.apply_radii("hilbert", *c) for c in calls] + [operators._exp_contract(*s) for s in seams]
print(json.dumps([len(calls)] + [x.tobytes() == y.tobytes() for x, y in zip(blocked, unblocked)]))
"""


def test_hilbert_contraction_equals_the_unblocked_product_on_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(hlp_sharp.__file__).resolve().parents[1]))
    sets = [[argv, thin] for argv, thin, _ in _HILBERT_SETS.values()]
    out = subprocess.run([sys.executable, "-c", _HILBERT_CHILD, json.dumps(sets)],
                         env=env, capture_output=True, text=True, check=True)
    count, *equal = json.loads(out.stdout.splitlines()[-1])
    assert count == len(sets) and all(equal), equal


@pytest.mark.parametrize("name", sorted(_HILBERT_SETS))
def test_hilbert_sharpness_records_are_pinned(name):
    argv, thin, ratio = _HILBERT_SETS[name]
    cfg = config_from_args(["--command", "verify-sharpness", "--kind", "hilbert", *argv])
    grid = dataclasses.replace(cfg.grid, radii=cfg.grid.radii[::8]) if thin else cfg.grid
    rec = sharpness_ratio("hilbert", cfg.params, cfg.truncation, grid)
    assert rec.oracle == float.fromhex(ratio)
