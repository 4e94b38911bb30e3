"""End-to-end acceptance suite.

One test per criterion:

1. classical anchor for the max-kernel constant (closed form vs anchor vs oracle)
2. classical anchor for the sum-kernel constant
3. closed form vs region-decomposition oracle on 50 random admissible sets
4. closed form vs iterated-quadrature oracle, plus the Beta-recursion identity
5. dilation covariance of the Morrey norm estimator, cell by cell
6. truncated-extremizer sharpness ratios converging to the constants from below
7. group axioms, gauge properties, and Monte Carlo ball volumes
8. radialization: norm contraction and operator neutrality
9. divergence detection with matching condition names
"""

import math
import time

import numpy as np
import pytest

from hlp_sharp.constants import (
    beta_recursion_Im,
    classical_anchors,
    hilbert_closed_form,
    hlp_closed_form,
)
from hlp_sharp.cli import config_from_args
from hlp_sharp.hgroup import (
    GroupParams,
    HPoint,
    dilate_arrays,
    hnorm_arrays,
    identity,
    mul_arrays,
)
from hlp_sharp.morrey import (
    BallGrid,
    MorreySpaceSpec,
    default_grid,
    morrey_norm,
    sharpness_ratio,
    verify_dilation,
)
from hlp_sharp.operators import RadialProfile, apply_radii
from hlp_sharp.params import (
    ExponentSet,
    ParamSet,
    admissibility_violations,
    derive_exponents,
    validate,
)
from hlp_sharp.quad import (
    DivergenceError,
    MCSpec,
    QuadratureSpec,
    hilbert_constant_oracle,
    hlp_constant_oracle,
    keyed_rng,
    mc_ball_integral,
    polar_directions,
)

from conftest import make_admissible

ANCHOR_QS = (1.5, 2.0, 3.0, 5.0)


@pytest.fixture(scope="module")
def spec():
    return QuadratureSpec()


@pytest.fixture(scope="module")
def gp():
    return GroupParams(n=1)


@pytest.fixture(scope="module")
def random_paramsets():
    """50 admissible draws covering m in {1,2,3} and n in {1,2}, then 15
    from a separate stream covering every m in 4..8 with every n in {1,2,3}
    (criteria 3-4)."""
    rng = np.random.default_rng(20240817)
    draws = []
    for i in range(50):
        m = 1 + i % 3
        n = 1 + (i // 3) % 2
        draws.append(make_admissible(rng, m=m, n=n))
    assert {p.m for p in draws} == {1, 2, 3}
    assert {p.n for p in draws} == {1, 2}
    wide = np.random.default_rng(20240818)
    draws += [make_admissible(wide, m=4 + i % 5, n=1 + i % 3) for i in range(15)]
    assert {(p.m, p.n) for p in draws[50:]} == {(m, n) for m in range(4, 9) for n in (1, 2, 3)}
    return draws


def test_criterion_1_hlp_classical_anchor(gp, spec):
    start = time.perf_counter()
    for q in ANCHOR_QS:
        sigma = -gp.Q / q
        e = ExponentSet(sigma_list=(sigma,), sigma=sigma)
        closed = hlp_closed_form(e, gp).value
        anchor = gp.Omega_Q * classical_anchors(q)[0]
        oracle = hlp_constant_oracle(e, gp, spec)
        assert abs(closed - anchor) <= 1e-10 * anchor
        assert abs(closed - oracle) <= 1e-8 * anchor
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_hilbert_classical_anchor(gp, spec):
    start = time.perf_counter()
    for q in ANCHOR_QS:
        sigma = -gp.Q / q
        e = ExponentSet(sigma_list=(sigma,), sigma=sigma)
        closed = hilbert_closed_form(e, gp).value
        anchor = gp.Omega_Q * classical_anchors(q)[1]
        oracle = hilbert_constant_oracle(e, gp, spec)
        assert abs(closed - anchor) <= 1e-10 * anchor
        assert abs(closed - oracle) <= 1e-8 * anchor
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_3_hlp_constant_reconciliation(random_paramsets, spec):
    start = time.perf_counter()
    for p in random_paramsets:
        gp_n = GroupParams(n=p.n)
        e = derive_exponents(p)
        closed = hlp_closed_form(e, gp_n).value
        oracle = hlp_constant_oracle(e, gp_n, spec)
        rel = abs(closed - oracle) / max(closed, oracle)
        assert rel <= 1e-6, f"{p} rel={rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_4_hilbert_constant_reconciliation(random_paramsets, spec):
    start = time.perf_counter()
    for p in random_paramsets:
        gp_n = GroupParams(n=p.n)
        e = derive_exponents(p)
        closed = hilbert_closed_form(e, gp_n).value
        oracle = hilbert_constant_oracle(e, gp_n, spec)
        rel = abs(closed - oracle) / max(closed, oracle)
        assert rel <= 1e-6, f"{p} rel={rel:.3e}"
        # the nested Beta recursion must reproduce the Gamma-product form
        offsets = [s / gp_n.Q for s in e.sigma_list]
        recursed = gp_n.Omega_Q**p.m * beta_recursion_Im(offsets, float(p.m))
        assert abs(recursed - closed) <= 1e-12 * closed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_5_dilation_covariance():
    rng = np.random.default_rng(51)
    gp_n = GroupParams(n=1)
    d = gp_n.dim
    horiz = [0.0] * d
    horiz[0] = 1.0
    vert = [0.0] * d
    vert[-1] = 1.0
    grid = BallGrid(
        center_radii=(0.0, 1.0),
        center_directions=(HPoint(tuple(horiz)), HPoint(tuple(vert))),
        radii=(0.5, 4.0),
    )
    for _ in range(10):
        q = float(rng.uniform(1.1, 4.0))
        lam = -float(rng.uniform(0.15, 0.95)) / q
        alpha = float(rng.uniform(-gp_n.Q + 0.5, 2.0))
        gamma_w = float(rng.uniform(-gp_n.Q + 0.5, 1.5))
        space = MorreySpaceSpec(q=q, lam=lam, alpha=alpha, gamma_w=gamma_w)
        sigma_f = -float(rng.uniform(0.05, 0.9 * (gp_n.Q + gamma_w) / q))
        f = RadialProfile.power(sigma_f)
        factors = (0.5, 2.0, 10.0)
        for t, rep in zip(factors, verify_dilation(f, factors, space, grid, gp_n, 7)):
            assert rep.passed, (
                f"q={q:.3f} lam={lam:.3f} alpha={alpha:.3f} gamma_w={gamma_w:.3f} "
                f"sigma_f={sigma_f:.3f} t={t}: rel_err={rep.rel_err:.3e}"
            )
            assert rep.rel_err <= 1e-10


def sharp_params(m: int) -> ParamSet:
    return ParamSet(
        m=m,
        n=1,
        q=2.0,
        q_list=tuple(2.0 * m for _ in range(m)),
        lam=-0.25,
        lam_list=tuple(-0.25 / m for _ in range(m)),
        gamma_list=tuple(0.0 for _ in range(m)),
        alpha=0.0,
    )


def test_criterion_6_sharpness_ratio_convergence():
    start = time.perf_counter()
    widths = ((1e-2, 1e2), (1e-3, 1e3))
    for kind in ("hlp", "hilbert"):
        for m in (1, 2):
            p = sharp_params(m)
            reps = [
                sharpness_ratio(kind, p, w, default_grid(p.n))
                for w in widths
            ]
            narrow, wide = (rep.oracle / rep.closed_form for rep in reps)
            assert narrow >= 0.90, f"{kind} m={m}: ratio/constant {narrow:.4f} < 0.90"
            assert wide > narrow, (
                f"{kind} m={m}: ratio did not increase ({narrow:.6f} -> {wide:.6f})"
            )
            assert narrow <= 1.0 + 1e-3 and wide <= 1.0 + 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s"


@pytest.mark.parametrize("m", [3, 4])
def test_hilbert_sharpness_ratio_beyond_m2(m):
    # The sum kernel's bounded-support path at m = 3, 4 on a thinned grid.
    g = default_grid(1)
    grid = BallGrid(g.center_radii, g.center_directions, g.radii[::8])
    rep = sharpness_ratio("hilbert", sharp_params(m), (1e-2, 1e2), grid)
    rel = rep.oracle / rep.closed_form
    assert 0.90 <= rel <= 1.0 + 1e-3, f"m={m}: ratio/constant {rel:.4f}"


def _strict_set(rng, m, n):
    """A strict set with alpha in [-0.99Q, 2): lambda_j coupled to lambda, a
    random q_j split, gamma_j in [-1, 1]."""
    while True:
        parts = rng.uniform(0.1, 1.0, size=m)
        q_list = tuple(float(v) for v in parts.sum() / (parts * rng.uniform(0.2, 0.9)))
        q = 1.0 / sum(1.0 / qj for qj in q_list)
        s = float(rng.uniform(-0.95, -0.05))  # q * lambda = q_j * lambda_j
        p = ParamSet(
            m=m, n=n, q=q, q_list=q_list, lam=s / q,
            lam_list=tuple(s / qj for qj in q_list),
            gamma_list=tuple(float(g) for g in rng.uniform(-1.0, 1.0, size=m)),
            alpha=float(rng.uniform(-0.99 * (2 * n + 2), 2.0)),
        )
        if validate(p, strict_sharpness=True).ok:
            return p


def test_sharpness_certificate_never_exceeds_the_constant():
    # Every strict set's ratio is a certified lower bound of the operator
    # norm, alpha < 0 included, so the closed form must bound it at every
    # width; a ratio above it would falsify the constant or the code
    rng = np.random.default_rng(20240917)
    for _ in range(60):
        p = _strict_set(rng, m=int(rng.integers(1, 7)), n=int(rng.integers(1, 4)))
        e = derive_exponents(p)
        # every factor's content exponent is the target's
        for qj, sj, gj in zip(p.q_list, e.sigma_list, p.gamma_list):
            assert qj * sj + qj * gj / p.q == pytest.approx(
                p.q * e.sigma + p.gamma, rel=1e-12, abs=1e-12
            )
        for kind in ("hlp", "hilbert"):
            for eps in (1e-2, 1e-4, 1e-6):
                rep = sharpness_ratio(kind, p, (eps, 1.0 / eps), default_grid(p.n))
                assert "certified lower bound" in rep.convention_note
                assert 0.0 < rep.oracle <= rep.closed_form * (1.0 + 1e-10), (
                    f"{kind} eps={eps:g} {p}: ratio/constant {rep.oracle / rep.closed_form!r}"
                )


def test_sharpness_certified_below_alpha_zero():
    # alpha < 0 is certified too (bathtub principle), and the band holds
    p = config_from_args(["--command", "verify-sharpness", "--m", "2", "--alpha", "-0.5"]).params
    g = default_grid(p.n)
    grid = BallGrid(g.center_radii, g.center_directions, g.radii[::8])
    for kind in ("hlp", "hilbert"):
        reps = [
            sharpness_ratio(kind, p, (eps, 1.0 / eps), grid)
            for eps in (1e-2, 1e-3)
        ]
        narrow, wide = (rep.oracle / rep.closed_form for rep in reps)
        assert 0.90 <= narrow < wide <= 1.0 + 1e-3, f"{kind}: {narrow:.6f} -> {wide:.6f}"
        assert all("certified lower bound" in rep.convention_note for rep in reps)


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_7_group_suite(n):
    gp_n = GroupParams(n=n)
    d = gp_n.dim
    rng = np.random.default_rng(700 + n)
    N = 10_000
    X = rng.uniform(-5.0, 5.0, size=(N, d))
    Y = rng.uniform(-5.0, 5.0, size=(N, d))
    Z = rng.uniform(-5.0, 5.0, size=(N, d))
    r = np.exp(rng.uniform(-2.0, 2.0, size=N))

    # associativity (exact group law up to roundoff)
    dev = np.max(
        np.abs(
            mul_arrays(mul_arrays(X, Y, n), Z, n) - mul_arrays(X, mul_arrays(Y, Z, n), n)
        )
    )
    assert dev <= 1e-11

    # identity and inverses
    E = np.zeros((N, d))
    assert np.array_equal(mul_arrays(X, E, n), X)
    assert np.array_equal(mul_arrays(E, X, n), X)
    assert np.max(np.abs(mul_arrays(X, -X, n))) <= 1e-12

    # gauge homogeneity |delta_r x| = r |x|
    hom = np.abs(
        hnorm_arrays(dilate_arrays(r, X, n), n) - r * hnorm_arrays(X, n)
    ) / np.maximum(r * hnorm_arrays(X, n), 1e-300)
    assert np.max(hom) <= 1e-11

    # left-invariance of the induced distance
    XY = mul_arrays(X, Y, n)
    XZ = mul_arrays(X, Z, n)
    dist1 = hnorm_arrays(mul_arrays(-XY, XZ, n), n)
    dist2 = hnorm_arrays(mul_arrays(-Y, Z, n), n)
    assert np.max(np.abs(dist1 - dist2) / np.maximum(dist2, 1e-300)) <= 1e-9

    # triangle inequality of the gauge norm
    lhs = hnorm_arrays(XY, n)
    rhs = hnorm_arrays(X, n) + hnorm_arrays(Y, n)
    assert np.max(lhs - rhs) <= 1e-11

    # Monte Carlo ball volumes within three standard errors; each radius
    # has its own seed, since one seed would give every radius the same
    # draw rescaled by r^Q
    def one(pts):
        return np.ones(len(pts))

    for k, radius in enumerate((0.5, 1.0, 2.0)):
        mc = MCSpec(samples=50_000, seed=70 + 10 * k + n, shards=8)
        est, se = mc_ball_integral(one, identity(n), radius, gp_n, mc)
        exact = gp_n.Omega_Q * radius**gp_n.Q
        assert abs(est - exact) <= 3.0 * se, (
            f"n={n} r={radius}: est={est:.6f} exact={exact:.6f} se={se:.2e}"
        )


# ---------------------------------------------------------------------------
# Criterion 8 helpers: five non-radial functions with known radializations
# ---------------------------------------------------------------------------

_ANNULUS = (0.5, 2.0)


def _annulus_mask(r, a=_ANNULUS[0], b=_ANNULUS[1]):
    return (r >= a) & (r <= b)


def _make_test_function(radial_power, c, angular):
    """f(x) = r^p (1 + c*odd(x)) on the annulus; the odd factor has zero
    sphere average, so the radialization is exactly r^p there."""

    def f(pts):
        r = hnorm_arrays(pts, (pts.shape[1] - 1) // 2)
        out = np.zeros(len(pts))
        mask = _annulus_mask(r) & (r > 0.0)
        if np.any(mask):
            out[mask] = r[mask] ** radial_power * (1.0 + c * angular(pts[mask], r[mask]))
        return out

    return f


NONRADIAL_CASES = (
    (0.0, 0.5, lambda p, r: p[:, 0] / r),
    (-0.5, 0.4, lambda p, r: p[:, 1] / r),
    (1.0, 0.8, lambda p, r: np.sign(p[:, -1])),
    (-1.0, 0.6, lambda p, r: p[:, 0] * p[:, -1] / r**3),
    (0.5, 0.7, lambda p, r: p[:, 0] * p[:, 1] / r**2),
)


def _mc_operator_estimate(kind, funcs, t, gp_n, samples, seed):
    """m-fold Monte Carlo estimate of the operator value at |x| = t, sampling
    each y_j from the annulus with the polar radial law."""
    a, b = _ANNULUS
    Q = gp_n.Q
    m = len(funcs)
    mass = gp_n.omega_Q * (b**Q - a**Q) / Q
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 811))))
    blocks = 16
    per = max(256, samples // blocks)
    block_means = np.empty(blocks)
    for k in range(blocks):
        w = np.full(per, mass**m)
        radii = []
        for f in funcs:
            u = rng.random(per)
            r = (a**Q + u * (b**Q - a**Q)) ** (1.0 / Q)
            xi = polar_directions(rng, per, gp_n.n)
            y = dilate_arrays(r, xi, gp_n.n)
            w = w * f(y)
            radii.append(r)
        if kind == "hlp":
            top = np.full(per, t)
            for r in radii:
                top = np.maximum(top, r)
            K = top ** (-m * Q)
        else:
            s = np.full(per, t**Q)
            for r in radii:
                s = s + r**Q
            K = s ** (-float(m))
        block_means[k] = float(np.mean(w * K))
    est = float(block_means.mean())
    se = float(block_means.std(ddof=1) / math.sqrt(blocks))
    return est, se


def _derive_seed(seed, *indices):
    """Stable 63-bit stream seed derived from a base seed and an index tuple."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def _radialized_profile(f, gp_n, mc):
    """Sphere average of f on 25 knots over the annulus, with the polar
    measure: shard s draws its directions once, from keyed_rng(seed, 23, s),
    and shares them across the knots.  Returns the tabulated profile of the
    knot means and the tabulated stderr of each mean over the shards."""
    knots = np.geomspace(_ANNULUS[0], _ANNULUS[1], 25)
    per_shard = max(16, mc.samples // (mc.shards * knots.size))
    shard_means = np.empty((mc.shards, knots.size))
    for s in range(mc.shards):
        xi = polar_directions(keyed_rng(mc.seed, 23, s), per_shard, gp_n.n)
        for k, r in enumerate(knots):
            shard_means[s, k] = float(np.mean(f(dilate_arrays(float(r), xi, gp_n.n))))
    prof = RadialProfile.tabulated(knots, np.maximum(shard_means.mean(axis=0), 0.0))
    stderr = shard_means.std(axis=0, ddof=1) / math.sqrt(mc.shards)
    err = RadialProfile.tabulated(knots, np.maximum(stderr, 1e-15 * prof(knots)))
    return prof, err


def _origin_cell_norm(f, q, radii, gp_n, mc):
    """Largest Monte Carlo origin cell B(0, R), R in radii, of the Morrey
    norm at the endpoint lambda = -1/q, where the ball weight drops out:
    (content of |f|^q)^(1/q) and its first-order stderr.  Cell i draws from
    mc_ball_integral with seed _derive_seed(_derive_seed(seed, 0, 0, i), 0)."""
    cells = []
    for i, R in enumerate(radii):
        cell = MCSpec(mc.samples, _derive_seed(_derive_seed(mc.seed, 0, 0, i), 0), mc.shards)
        content, se = mc_ball_integral(lambda X: np.abs(f(X)) ** q, identity(gp_n.n), R, gp_n, cell)
        value = content ** (1.0 / q)
        cells.append((value, value * se / (q * content)))
    return max(cells, key=lambda c: c[0])


def test_criterion_8_radialization_contraction_and_neutrality():
    gp_n = GroupParams(n=1)
    mc = MCSpec(samples=60_000, seed=81, shards=8)
    grid = BallGrid(
        center_radii=(0.0,),
        center_directions=(HPoint((1.0, 0.0, 0.0)),),
        radii=(1.0, 2.0, 4.0),
    )
    space = MorreySpaceSpec(q=2.0, lam=-0.5)  # endpoint lambda: pure L^q cells

    profiles = []
    errors = []
    for i, (power, c, angular) in enumerate(NONRADIAL_CASES):
        f = _make_test_function(power, c, angular)
        prof, err = _radialized_profile(f, gp_n, MCSpec(samples=60_000, seed=810 + i, shards=8))
        profiles.append(prof)
        errors.append(err)

        # --- contraction: ||radialization|| <= ||f|| (within combined MC error)
        norm_rad = morrey_norm(prof, space, grid, gp_n).value
        norm_full, se_full = _origin_cell_norm(f, space.q, grid.radii, gp_n, mc)
        slack = 3.0 * se_full + 1e-9 * norm_full
        assert norm_rad <= norm_full + slack, (
            f"case {i}: contraction violated: {norm_rad:.6f} vs "
            f"{norm_full:.6f} (slack {slack:.2e})"
        )

        # --- neutrality: the operator cannot tell f from its radialization
        kind = "hlp" if i % 2 == 0 else "hilbert"
        for t in (1.0, 3.0):
            via_profile = apply_radii(kind, [prof], [t], gp_n)[0]
            direct, se_mc = _mc_operator_estimate(kind, [f], t, gp_n, 120_000, seed=8100 + i)
            se_prof = apply_radii(kind, [err], [t], gp_n)[0]
            slack = 3.0 * (se_mc + se_prof) + 1e-9 * abs(via_profile)
            assert abs(via_profile - direct) <= slack, (
                f"case {i} kind={kind} t={t}: profile {via_profile:.6f} vs "
                f"direct {direct:.6f}, slack {slack:.2e}"
            )

    # --- bilinear neutrality with two distinct non-radial factors
    f1 = _make_test_function(*NONRADIAL_CASES[0])
    f2 = _make_test_function(*NONRADIAL_CASES[2])
    via_profile = apply_radii("hlp", [profiles[0], profiles[2]], [1.0], gp_n)[0]
    direct, se_mc = _mc_operator_estimate("hlp", [f1, f2], 1.0, gp_n, 200_000, seed=8200)
    se_prof = (
        apply_radii("hlp", [errors[0], profiles[2]], [1.0], gp_n)[0]
        + apply_radii("hlp", [profiles[0], errors[2]], [1.0], gp_n)[0]
    )
    slack = 3.0 * (se_mc + se_prof) + 1e-9 * abs(via_profile)
    assert abs(via_profile - direct) <= slack


def _token_family(condition: str) -> str:
    return condition.split(" violated", 1)[0]


def test_criterion_9_divergence_detection(spec):
    rng = np.random.default_rng(90)
    cases = []
    # five sets with sigma >= 0 (strongly negative total weight exponent)
    for _ in range(5):
        base = make_admissible(rng, m=2, n=1)
        g = -base.q * float(rng.uniform(4.0, 8.0))
        cases.append(
            (
                ParamSet(
                    m=base.m,
                    n=base.n,
                    q=base.q,
                    q_list=base.q_list,
                    lam=base.lam,
                    lam_list=base.lam_list,
                    gamma_list=(g, g),
                    alpha=base.alpha,
                ),
                "sigma<0",
            )
        )
    # five sets with Q + sigma_j <= 0 (strongly positive single weight exponent)
    for _ in range(5):
        base = make_admissible(rng, m=2, n=1)
        g = base.q * float(rng.uniform(15.0, 25.0))
        cases.append(
            (
                ParamSet(
                    m=base.m,
                    n=base.n,
                    q=base.q,
                    q_list=base.q_list,
                    lam=base.lam,
                    lam_list=base.lam_list,
                    gamma_list=(g, -g / 2.0),
                    alpha=base.alpha,
                ),
                "Q+sigma_j>0",
            )
        )

    assert len(cases) == 10
    for p, family in cases:
        gp_n = GroupParams(n=p.n)
        e = derive_exponents(p)
        expected = admissibility_violations(e, gp_n.Q)
        assert expected, f"case unexpectedly admissible: {p}"

        res = validate(p)
        assert not res.ok
        validate_families = {_token_family(v) for v in res.violations}
        assert family in validate_families

        for oracle in (hlp_constant_oracle, hilbert_constant_oracle):
            with pytest.raises(DivergenceError) as exc:
                oracle(e, gp_n, spec)
            oracle_families = {_token_family(c) for c in exc.value.conditions}
            assert family in oracle_families
            # the named conditions match between validator and oracle
            assert oracle_families & validate_families
