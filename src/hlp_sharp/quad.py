"""Integration engine.

Three layers:

* a 1-D engine for integrals over (0, inf) of radial curves with possible
  power singularities at the origin and power or faster-decaying tails:
  composite Gauss-Legendre on panels geometrically refined toward the
  singular endpoint, with geometric-series extrapolation of the leftover
  mass; infinite tails are folded to (0, 1/2] by the rational map
  r = c(1-s)/s;
* quadrature oracles for the two sharp constants, built on the region
  decomposition of the max kernel and the iterated Beta-type reduction of
  the additive kernel — independent of the closed forms they certify;
* Monte Carlo integration over gauge balls with stratified radial sampling
  and importance sampling for origin singularities, drawing directions from
  the exact polar law of the unit gauge sphere.  Integrands are vectorized:
  they map an (N, 2n+1) array of points to N values.

Runs are reproducible: every random draw of the package comes from
keyed_rng(seed, *key), a counter-based Philox generator seeded by
SeedSequence((seed, *key)), with keys (17, shard, 0) for a ball-integral
shard, (23, shard) for a radialization shard and (29,) for group-check;
shards run and reduce serially in fixed order.  DivergenceError lives in
params, next to the admissibility conditions; quad re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hgroup import GroupParams, HPoint, dilate_arrays, hnorm_arrays, mul_arrays
from .params import DivergenceError, ExponentSet, require_admissible


class SamplingError(RuntimeError):
    """Monte Carlo sampling failed (e.g. vanishing acceptance ratio)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the deterministic integration engine."""

    panels: int = 96

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be positive")


@dataclass(frozen=True)
class MCSpec:
    """Settings for Monte Carlo ball integration."""

    samples: int = 100_000
    seed: int = 0
    shards: int = 8

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError("MCSpec.samples must be >= 1000")
        if self.shards < 1:
            raise ValueError("MCSpec.shards must be >= 1")


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 63-bit stream seed derived from a base seed and index tuple."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The package's one random generator: Philox seeded by
    SeedSequence((seed, *key)); the module docstring lists the keys in use."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *key))))


# ---------------------------------------------------------------------------
# 1-D engine
# ---------------------------------------------------------------------------

_NODES_PER_PANEL = 12


@lru_cache(maxsize=16)
def leggauss(k: int):
    return np.polynomial.legendre.leggauss(k)


def _panel_sums(g, edges: np.ndarray, nodes: int) -> np.ndarray:
    """Gauss-Legendre sums of g over consecutive panels [edges_i, edges_{i+1}]."""
    x, w = leggauss(nodes)
    a = edges[:-1]
    h = 0.5 * (edges[1:] - a)
    mid = a + h
    pts = mid[:, None] + h[:, None] * x[None, :]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        vals = np.asarray(g(pts.ravel()), dtype=float).reshape(pts.shape)
    return h * (vals @ w)


def _int_singular0(g, b: float, spec: QuadratureSpec, where: str) -> float:
    """Integral over (0, b] with a possible power singularity at 0.

    Panels are geometric toward 0; the mass below the innermost breakpoint is
    estimated by geometric-series extrapolation of the trailing panel sums,
    which is exact for pure power integrands.  Panel sums that fail to decay
    signal a non-integrable endpoint.
    """
    K = max(8, spec.panels)
    # half-octave refinement toward 0: resolves sharp decay near b while the
    # geometric-series extrapolation still handles the sub-panel mass exactly
    # for power behavior
    edges = b * np.exp2(-0.5 * np.arange(K + 1, dtype=float))[::-1]  # ascending
    sums = _panel_sums(g, edges, _NODES_PER_PANEL)[::-1]  # [0]=outermost
    total = float(np.sum(sums))
    tail = sums[-1]
    scale = max(abs(total), float(np.max(np.abs(sums))), 1e-300)
    if abs(tail) <= 1e-16 * scale:
        return total
    # decay ratio from the last few panels (geometric for power behavior)
    j = 3 if abs(sums[-4]) > 0 and sums[-4] * tail > 0 else 1
    prev = sums[-1 - j]
    if prev == 0.0:
        return total
    q = tail / prev
    if q <= 0.0:
        return total  # oscillating remainder, bounded by |tail|
    rho = q ** (1.0 / j)
    if rho >= 0.9999:
        raise DivergenceError(
            f"non-convergent integral near {where}: panel sums stop decaying "
            f"(ratio {rho:.6f})",
            conditions=(where,),
        )
    return total + float(tail) * rho / (1.0 - rho)


def _int_tail(g, spec: QuadratureSpec) -> float:
    """Integral of g over (1, inf), folded to (0, 1/2] by the rational map
    r = (1-s)/s, which is exact for power tails."""

    def h(s):
        vals = np.asarray(g((1.0 - s) / s), dtype=float)
        # a decayed integrand kills the (possibly overflowing) Jacobian
        jac = np.where(vals == 0.0, 0.0, 1.0 / (s * s))
        return vals * jac

    return _int_singular0(h, 0.5, spec, "tail")


def integrate_curve(g, spec: QuadratureSpec) -> float:
    """Integral of a vectorized curve g over (0, inf): (0, 1] with the
    origin treated as possibly power-singular, plus the tail (1, inf)
    folded through the rational map."""
    return _int_singular0(g, 1.0, spec, "origin") + _int_tail(g, spec)


# ---------------------------------------------------------------------------
# Constant oracles
# ---------------------------------------------------------------------------

def hlp_constant_oracle(e: ExponentSet, gp: GroupParams, spec: QuadratureSpec) -> float:
    """Quadrature value of the max-kernel constant integral.

    Decomposes the domain by which variable realizes the max: on E_0 (all
    radii below 1) the kernel is 1 and the integral is a product of power
    integrals in closed form; on E_i the inner variables integrate in closed
    form below the outer radius, leaving one residual 1-D integral over
    (1, inf) evaluated numerically.  Each residual integrand is one combined
    power times one coefficient: separate factors would underflow at the
    folded radii for large mQ.  The sum never touches the closed-form
    constant it certifies.
    """
    require_admissible(e, gp.Q)
    Q = gp.Q
    sig = e.sigma_list
    m = e.m

    total = 1.0
    for sj in sig:
        total *= 1.0 / (Q + sj)  # E_0: prod int_0^1 r^(Q-1+sigma_j) dr

    for i, si in enumerate(sig):
        others = [Q + sj for k, sj in enumerate(sig) if k != i]
        power = Q - 1.0 + si - m * Q + sum(others)
        total += _int_tail(lambda r, power=power: r**power, spec) / math.prod(others)

    return gp.omega_Q**m * total


def hilbert_constant_oracle(e: ExponentSet, gp: GroupParams, spec: QuadratureSpec) -> float:
    """Quadrature value of the additive-kernel constant integral.

    After substituting u_j = r_j^Q the integral factors through the nested
    Beta-type reduction: peeling the last variable with outer power s_m = m
    leaves outer power s_{k-1} = s_k - a_k, a_k = 1 + sigma_k/Q.  Each factor
    int_0^inf u^(a-1) (1+u)^(-s) du is evaluated numerically, keeping the
    oracle independent of the Gamma implementation.
    """
    require_admissible(e, gp.Q)
    Q = gp.Q
    a_list = [1.0 + sj / Q for sj in e.sigma_list]

    value = gp.Omega_Q ** e.m
    s = float(e.m)
    for a in reversed(a_list):
        if not (a > 0.0 and s - a > 0.0):
            raise DivergenceError(
                f"beta-type factor diverges: a = {a:.6g}, s - a = {s - a:.6g}",
                conditions=("beta factor",),
            )

        def g(u, a=a, s=s):
            return u ** (a - 1.0) * (1.0 + u) ** (-s)

        value *= integrate_curve(g, spec)
        s -= a
    return value


# ---------------------------------------------------------------------------
# Monte Carlo over gauge balls
# ---------------------------------------------------------------------------

_ACCEPT_FLOOR = 1e-4
_PURPOSE_BALL = 17


def eval_batch(f, pts: np.ndarray) -> np.ndarray:
    """f on an (N, 2n+1) batch of points, which must return N values."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"integrand mapped shape {pts.shape} to {vals.shape}, not ({len(pts)},)")
    return vals


def polar_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count unit-gauge-norm points drawn from the polar sphere law.

    In polar coordinates |z|^2 = N^2 cos(psi), t = N^2 sin(psi) the volume
    element is N^(Q-1) cos^(n-1)(psi) dN dpsi dS^(2n-1) (Folland-Stein,
    Hardy Spaces on Homogeneous Groups, 1982), so w = sin(psi) has
    (w+1)/2 ~ Beta(n/2, n/2) and the horizontal direction is uniform on
    S^(2n-1).  The sphere point is |z| = (1-w^2)^(1/4), t = w.  Returns an
    (count, 2n+1) array.
    """
    w = 2.0 * rng.beta(n / 2.0, n / 2.0, size=count) - 1.0
    g = rng.standard_normal((count, 2 * n))
    out = np.empty((count, 2 * n + 1))
    out[:, : 2 * n] = g * np.sqrt(np.sqrt(1.0 - w * w) / np.einsum("ij,ij->i", g, g))[:, None]
    out[:, 2 * n] = w
    return out


def _plain_blocks(rng, f, center, radius, gp, count):
    """Box-rejection draw: z = delta_R(u) for u uniform in the unit box,
    accepted when |u|_h < 1, translated to center o z.  The acceptance test
    never involves the ball-volume constant, so f = 1 yields a genuinely
    geometric volume estimate.  Returns one (1, count) block of weights and
    the accepted count."""
    n = gp.n
    u = rng.uniform(-1.0, 1.0, size=(count, gp.dim))
    acc = hnorm_arrays(u, n) < 1.0
    vbox = 2.0 ** (2 * n + 1) * radius**gp.Q
    w = np.zeros(count)
    if np.any(acc):
        z = dilate_arrays(radius, u[acc], n)
        pts = mul_arrays(center, z, n)
        w[acc] = eval_batch(f, pts) * vbox
    return w[None, :], int(np.count_nonzero(acc))


def _polar_blocks(rng, f, center, radius, gp, strata, per_block, beta, w_lo, w_hi):
    """Polar draw with the radial law tilted to r^(Q-1+beta) on the window
    [w_lo, w_hi], stratified over radius shells; membership in
    B(center, radius) is tested via hdist.  All strata come from one draw:
    stratum k takes u = (k + U)/strata.  Returns the weights as
    (strata, per_block) blocks and their count (every draw is kept)."""
    n = gp.n
    p = gp.Q + beta
    lo_p = 0.0 if w_lo == 0.0 else w_lo**p
    span = w_hi**p - lo_p
    dens_c = p / (gp.omega_Q * span)  # density factor / r^beta
    k = np.repeat(np.arange(strata), per_block)
    u = (k + rng.random(strata * per_block)) / strata
    r = (lo_p + u * span) ** (1.0 / p)
    pts = dilate_arrays(r, polar_directions(rng, r.size, n), n)
    w = eval_batch(f, pts) / (dens_c * r**beta)
    if float(hnorm_arrays(center, n)) > 0.0:
        offset = mul_arrays(-center, pts, n)
        w = np.where(hnorm_arrays(offset, n) < radius, w, 0.0)
    return w.reshape(strata, per_block), w.size


def mc_ball_integral(
    f,
    center: HPoint,
    radius: float,
    gp: GroupParams,
    mc: MCSpec,
    origin_exponent: float = 0.0,
    radial_window=None,
):
    """Monte Carlo estimate of int_{B(center, radius)} f dx, where f maps an
    (N, 2n+1) array of points to N values (other shapes raise ValueError).

    Returns (estimate, stderr).  The default path draws box candidates,
    rejects to the unit gauge ball (a scale-free test) and maps them into the
    ball by dilation and left translation.  When f carries an |x|^beta
    singularity at an interior origin, pass origin_exponent = beta in (-Q, 0]:
    sampling switches to a polar law with radial density proportional to
    r^(Q-1+beta) on the enclosing origin-centered ball, radius-stratified,
    with ball membership tested via hdist.

    When the gauge-radial support of f is known, pass it as
    radial_window = (s_lo, s_hi): the polar law is then restricted to the
    window intersected with the radial shell [|c| - R, |c| + R] swept by the
    ball (the gauge norm satisfies the triangle inequality), which removes
    the volume-dilution variance when the support is much smaller than the
    ball.  An empty intersection returns (0.0, 0.0) exactly.

    Both paths run one shard loop: shard s draws one weight block per radial
    stratum (the plain path is the one-stratum case) from
    keyed_rng(seed, 17, s, 0), and one reduction averages the block means.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if center.coords.size != gp.dim:
        raise ValueError("center dimension does not match GroupParams")
    beta = min(float(origin_exponent), 0.0)
    if beta <= -gp.Q:
        raise ValueError("origin_exponent must exceed -Q")

    c_norm = float(hnorm_arrays(center.coords, gp.n))
    shards = mc.shards

    if radial_window is not None or (beta < 0.0 and c_norm < radius):
        lo, hi = (0.0, math.inf) if radial_window is None else radial_window
        w_lo = max(float(lo), c_norm - radius, 0.0)
        w_hi = min(float(hi), c_norm + radius)
        if not w_hi > w_lo:
            return 0.0, 0.0
        strata = max(1, min(16, mc.samples // (shards * 8)))
        per_block = max(2, mc.samples // (shards * strata))
        draw = lambda rng: _polar_blocks(
            rng, f, center.coords, radius, gp, strata, per_block, beta, w_lo, w_hi
        )
    else:
        per_shard = max(2, mc.samples // shards)
        draw = lambda rng: _plain_blocks(rng, f, center.coords, radius, gp, per_shard)

    means, var_parts, accepted = [], [], 0
    for s in range(shards):
        blocks, kept = draw(keyed_rng(mc.seed, _PURPOSE_BALL, s, 0))
        means.append(float(blocks.mean(axis=1).mean()))
        var_parts.append(float((blocks.var(axis=1, ddof=1) / blocks.shape[1]).sum()))
        accepted += kept
    drawn = shards * blocks.size
    if drawn >= 100_000 and accepted / drawn < _ACCEPT_FLOOR:
        raise SamplingError(
            f"ball rejection acceptance ratio {accepted / drawn:.2e} below {_ACCEPT_FLOOR}"
        )
    estimate = float(np.array(means).mean())
    stderr = float(math.sqrt(np.array(var_parts).sum()) / (shards * blocks.shape[0]))
    return estimate, stderr
