"""Integration engine.

Four layers:

* a 1-D engine for integrals over (0, inf) of radial curves with possible
  power singularities at the origin and power or faster-decaying tails:
  composite Gauss-Legendre on panels geometrically refined toward the
  singular endpoint, with geometric-series extrapolation of the leftover
  mass from two panel sums an octave apart, certified only within its own
  rounding bound; infinite tails are folded to (0, 1/2] by the rational map
  r = c(1-s)/s; the nodes, half-widths and tail Jacobian depend only on
  the panel geometry, so each table is built once per process, on first
  use, and shared read-only; beside it, gauge_ball_volume values the unit
  gauge ball as a slab on one Gauss-Legendre panel, which group-check
  holds against hgroup's closed form;
* quadrature oracles for the two sharp constants, built on the region
  decomposition of the max kernel and the iterated Beta-type reduction of
  the additive kernel — independent of the closed forms they certify;
* ball_rule, a deterministic rule for radial integrands over an
  off-center gauge ball: the exact polar law of the gauge sphere reduces
  ball membership to a disc in two horizontal coordinates, whose mass has
  a closed form at n = 1, 2 and above is a flux through the disc's own arc
  (Green's theorem) on one Gauss-Legendre panel; Gauss-Legendre panels
  split at the kinks of that reduction, in the radius and in the one angle
  tau, cos(theta) = cos(tau)^2, carry it to ~1e-10; each rule is built once
  per process per (n, |z|, |t|, R, breakpoints) and shared read-only;
* Monte Carlo integration over gauge balls with stratified radial sampling
  and importance sampling for origin singularities, drawing directions from
  the exact polar law of the unit gauge sphere.  It serves the tests that
  check ball_rule and the benchmark's probes; no command draws from it.
  Integrands are vectorized: they map an (N, 2n+1) array of points to N
  values.

Runs are reproducible: every random draw of the package comes from
keyed_rng(seed, *key), a counter-based Philox generator seeded by
SeedSequence((seed, *key)), with keys (17, shard, 0) for a ball-integral
shard and (29,) for group-check; shards run and reduce serially in fixed
order.  DivergenceError lives in params, next to the admissibility
conditions; quad re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hgroup import BLOCK_FLOATS, GroupParams, HPoint, dilate_arrays, hnorm_arrays, mul_arrays
from .params import DivergenceError, ExponentSet, require_admissible


class SamplingError(RuntimeError):
    """Monte Carlo sampling failed (e.g. vanishing acceptance ratio)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the deterministic integration engine."""

    panels: int = 96

    def __post_init__(self):
        if self.panels < 8:
            raise ValueError("panels must be >= 8")


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


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The package's one random generator: Philox seeded by
    SeedSequence((seed, *key)); the module docstring lists the keys in use."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *key))))


# ---------------------------------------------------------------------------
# 1-D engine
# ---------------------------------------------------------------------------

_NODES_PER_PANEL = 12
_EPS = np.finfo(float).eps


@lru_cache(maxsize=16)
def leggauss(k: int):
    """Gauss-Legendre nodes (ascending) and weights of even order k on
    [-1, 1].

    Newton's method on the three-term recurrence of P_k from Tricomi's first
    guesses finds the roots in [0, 1); the weight 2 / ((1 - x^2) P_k'(x)^2)
    is taken at the root corrected by its last sub-ulp Newton step.  The
    negative nodes are the positive ones negated, so the rule is exactly
    symmetric.  The arrays are cached and shared, so they are read-only."""
    half = k // 2
    x = np.cos(math.pi * (np.arange(half) + 0.75) / (k + 0.5))

    def legendre(x):
        """P_k(x) and P_k'(x)."""
        p0, p1 = np.ones_like(x), x
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, k * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    for _ in range(20):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.all(np.abs(step) <= _EPS * x):
            break
    p, dp = legendre(x)
    d = -p / dp  # the root's offset from x, below one ulp
    dp = dp + d * (2.0 * x * dp - k * (k + 1) * p) / ((1.0 - x) * (1.0 + x))
    w = 2.0 / (((1.0 - x) * (1.0 + x) - 2.0 * x * d) * dp * dp)
    nodes, weights = np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=32)
def _panel_table(b: float, K: int, folded: bool):
    """The fixed geometry of one 1-D integral over (0, b]: _NODES_PER_PANEL
    Gauss-Legendre nodes on each of K panels, geometric by half-octaves
    toward 0, with the panels' half-widths.  Folded, the nodes s are
    mapped to r = (1-s)/s and the Jacobian 1/s^2 is returned too (else
    None).  Built once per process on first use; the arrays are read-only,
    so an integrand that writes into its argument raises instead of
    corrupting later integrals."""
    x, _ = leggauss(_NODES_PER_PANEL)
    # half-octave refinement toward 0: resolves sharp decay near b while the
    # geometric-series extrapolation still handles the sub-panel mass exactly
    # for power behavior
    edges = b * np.exp2(-0.5 * np.arange(K + 1, dtype=float))[::-1]  # ascending
    a = edges[:-1]
    h = 0.5 * (edges[1:] - a)
    s = ((a + h)[:, None] + h[:, None] * x[None, :]).ravel()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes, jac = ((1.0 - s) / s, 1.0 / (s * s)) if folded else (s, None)
    for arr in (nodes, h, jac):
        if arr is not None:
            arr.flags.writeable = False
    return nodes, h, jac


def _panel_sums(g, b: float, K: int, folded: bool) -> np.ndarray:
    """Gauss-Legendre sums of g over the panels of _panel_table(b, K, folded),
    innermost first."""
    nodes, h, jac = _panel_table(b, K, folded)
    _, w = leggauss(_NODES_PER_PANEL)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        vals = np.asarray(g(nodes), dtype=float)
        if folded:
            # a decayed integrand kills the (possibly overflowing) Jacobian
            vals = vals * np.where(vals == 0.0, 0.0, jac)
    return h * (vals.reshape(K, _NODES_PER_PANEL) @ w)


def _int_singular0(g, b: float, spec: QuadratureSpec, where: str, folded: bool = False) -> float:
    """Integral over (0, b] with a possible power singularity at 0; when
    folded, of g((1-s)/s)/s^2 in s.

    The panel edges are b 2^(-k/2), so the innermost panel and the one two
    panels out are exact binary dilates: for a power integrand their sums
    stand in a ratio rho^2, and the mass below the innermost breakpoint is
    the geometric series tail * rho / (1 - rho).  A rounding error of eps in
    rho moves that remainder by eps / (1 - rho) of itself; the integral is
    certified when 64 times that is at most 1e-7 of the result.  Sums that
    do not decay (rho^2 outside (0, 1)) signal a non-integrable endpoint.
    """
    sums = _panel_sums(g, b, spec.panels, folded)[::-1]  # [0]=outermost
    total = float(np.sum(sums))
    tail = float(sums[-1])
    scale = max(abs(total), float(np.max(np.abs(sums))), 1e-300)
    if abs(tail) <= 1e-16 * scale:
        return total
    q = float(tail / sums[-3])
    if not 0.0 < q < 1.0:
        why = f"panel sums do not decay (octave ratio {q:.6g})"
    else:
        rho = math.sqrt(q)
        rest = tail * rho / (1.0 - rho)
        if 64.0 * _EPS * abs(rest) <= 1e-7 * (1.0 - rho) * abs(total + rest):
            return total + rest
        why = f"the extrapolated remainder fails its rounding bound (1 - ratio = {1.0 - rho:.3g})"
    raise DivergenceError(f"integral near {where} not certified: {why}", conditions=(where,))


def _int_tail(g, spec: QuadratureSpec) -> float:
    """Integral of g over (1, inf), folded to (0, 1/2] by the rational map
    r = (1-s)/s, which is exact for power tails."""
    return _int_singular0(g, 0.5, spec, "tail", folded=True)


def integrate_curve(g, spec: QuadratureSpec) -> float:
    """Integral of a vectorized curve g over (0, inf): (0, 1] with the
    origin treated as possibly power-singular, plus the tail (1, inf)
    folded through the rational map."""
    return _int_singular0(g, 1.0, spec, "origin") + _int_tail(g, spec)


_SLAB_NODES = 24


def gauge_ball_volume(n: int) -> float:
    """Volume of the unit gauge ball of H^n by a slab rule, independent of
    hgroup's Gamma form and of ball_rule.

    The ball is the slab {|z| < 1, |t| < (1 - |z|^4)^(1/2)}, so
    Omega_Q = (2 pi^n / (n-1)!) int_0^1 2 rho^(2n-1) (1 - rho^4)^(1/2) drho.
    With rho = sin(u) the integrand becomes
    2 sin(u)^(2n-1) cos(u)^2 (1 + sin(u)^2)^(1/2) on (0, pi/2), which is
    smooth, so _SLAB_NODES Gauss-Legendre nodes give Omega_Q to rounding."""
    x, w = leggauss(_SLAB_NODES)
    half = 0.25 * math.pi  # half-length of (0, pi/2)
    s = np.sin(half * (x + 1.0))
    c2 = 1.0 - s * s
    integral = half * float(w @ (2.0 * s ** (2 * n - 1) * c2 * np.sqrt(1.0 + s * s)))
    return 2.0 * math.pi**n / math.factorial(n - 1) * integral


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
# Deterministic rule for radial integrands over gauge balls
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_RULE_NODES = 24  # Gauss-Legendre nodes per panel, in r, in the angle and along the disc's arc
_GRADE = 4.0  # ratio of the geometric grading toward nearby singular points
_GRADE_LEVELS = 40
_TOUCH_LEVELS = 27  # a boundary through the origin: r graded down to 4^-27 of the first break
_ROWS = 256  # radii whose angle panels are built at once
_VOLUME_TOL = 1e-7  # largest accepted error of a rule's own ball volume
_RULE_CACHE = 1024  # rules kept per process; one holds 0.4 to 12 KB of arrays
# a center with |t| <= _FLAT |z|^2 takes the horizontal rule: there the mixed
# rule agrees with it to 2e-13, and below it the mixed rule's radial breaks
# lose their own volume to rounding (1e-10 at 1e-10 |z|^2, n = 1)
_FLAT = 1e-9


@dataclass(frozen=True)
class BallRule:
    """int over B(a, R) of F(|x|_h) dx ~ inner * int_0^r_in F(r) r^(Q-1) dr
    + sum(weights * F(nodes)), for any radial F smooth between the
    breakpoints the rule was built with.  inner is omega_Q times the share of
    each gauge sphere below r_in that the ball holds: 1 when the ball
    contains B(0, r_in), 0 when it misses it, and the share at r_in when the
    ball's boundary passes through the origin."""

    r_in: float
    inner: float
    nodes: np.ndarray
    weights: np.ndarray


def ball_rule(center: HPoint, radius: float, gp: GroupParams, breakpoints=()) -> BallRule:
    """The rule of one off-center ball B(center, radius) (see BallRule).

    Write x = delta_r(xi) with xi on the unit gauge sphere in the polar law
    of polar_directions: w = sin(theta) with density cos(theta)^(n-1), and
    a horizontal part (cos theta)^(1/2) g, g uniform on S^(2n-1).  With
    (u, v) the components of g along the center's horizontal direction and
    its rotation by the twist, |a^-1 x|_h < R is a disc in the (u, v) plane,
    so the occupied share of the sphere of radius r is
    phi(r) = E_theta[psi_n], psi_n the mass of that disc under the law of
    (u, v) (_disc_share).  The disc test changes form at the kink angles of
    _kink_angles and phi at the radii of _radial_breaks; both integrals are
    split there and at the given breakpoints, graded toward nearby singular
    points (_subpanels), and valued by sine-mapped Gauss-Legendre panels.
    _occupancy values phi: a vertical center's cap in closed form, and
    otherwise psi_n over the whole sphere in one angle tau,
    cos(theta) = cos(tau)^2, smooth at the equator and at the poles, with a
    horizontal center's even share on the upper half only.  Weights are
    omega_Q * (r-panel weight) * r^(Q-1) * phi(r).
    At n = 2 a horizontal rule values psi_2 at 1e3 to 4e3 points, and at
    1.4e4 when the boundary passes through the origin (648 radii, 12 points
    at each radius below 0.05 |a|).  The center may point in any direction;
    only one with both a horizontal and a vertical part brackets its radial
    breaks numerically.  The rounding of the node radii grows as R shrinks
    against |a|_h (like eps (|a|_h / R)^2 at a vertical center), so a ball
    whose rule misses its own volume
    Omega_Q R^Q by more than 1e-7 (R below ~1e-5 |a|_h, but from 3e-3 |a|_h
    at nearly vertical centers) raises ValueError rather than return a
    wrong or zero cell.  A center with |t| at most
    1e-9 |z|^2 takes the horizontal rule (t = 0).  The rule reads only n,
    |z|, |t|, R and the breakpoints, so each is built once per process on
    first use and shared (the last _RULE_CACHE kept); its arrays are
    read-only.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if center.coords.size != gp.dim:
        raise ValueError("center dimension does not match GroupParams")
    z = center.coords[: 2 * gp.n]
    c, t = math.sqrt(float(z @ z)), abs(float(center.coords[-1]))
    if c == 0.0 and t == 0.0:
        raise ValueError("ball_rule needs an off-origin center")
    if t <= _FLAT * c * c:
        t = 0.0
    return _built_rule(c, t, radius, gp, tuple(float(b) for b in breakpoints))


@lru_cache(maxsize=_RULE_CACHE)
def _built_rule(c, t, radius, gp, breakpoints):
    """The rule of ball_rule, built once per process per (|z|, |t|, R, gp,
    breakpoints) on first use; its arrays are shared, so they are read-only.
    A ball that fails the volume check raises on every call, since
    lru_cache stores no exception."""
    # E0 = |a|^4 - R^4 within its own rounding counts as a boundary through
    # the origin, so a ball and its dilate agree on which case they are
    quartics = (c**4, t * t, radius**4)
    E0 = quartics[0] + quartics[1] - quartics[2]
    if abs(E0) <= 4.0 * _EPS * sum(quartics):
        E0 = 0.0
    geo = (c, t, radius, E0)
    breaks = _radial_breaks(*geo)
    lo, hi = breaks[0], breaks[-1]
    edges = sorted({*breaks, *(b for b in breakpoints if lo < b < hi)})
    edges = [e for i, e in enumerate(edges) if i == 0 or e - edges[i - 1] > 1e-13 * e]
    if len(edges) < 2:
        edges.append(edges[0])  # no radial range left: the volume check below raises
    touching = edges[0] == 0.0
    if touching:
        edges[0] = edges[1] * _GRADE**-_TOUCH_LEVELS
    _, lo_r, hi_r = _subpanels(np.array(edges)[None, :], left=0.0)
    r, w = (a.ravel() for a in _sine_panels(lo_r, hi_r))
    phi = _occupancy(np.append(r, edges[0]) if touching else r, geo, gp.n)
    inner = float(phi[-1]) if touching else float(geo[3] < 0.0)
    weights = gp.omega_Q * w * r ** (gp.Q - 1) * phi[: r.size]
    # the rule must integrate F = 1 to the ball's volume; it cannot when the
    # ball is so small against |a|_h that the radii lose its width to rounding
    volume = gp.omega_Q * inner * edges[0] ** gp.Q / gp.Q + float(weights.sum())
    miss = abs(volume / (gp.Omega_Q * radius**gp.Q) - 1.0)
    if not miss <= _VOLUME_TOL:
        raise ValueError(
            f"B(a, {radius:g}) is too small against |a|_h = {(c**4 + t * t) ** 0.25:g} for the "
            f"radial rule: its volume is off by {miss:.1e}"
        )
    r.flags.writeable = weights.flags.writeable = False
    return BallRule(edges[0], gp.omega_Q * inner, r, weights)


def _sine_panels(lo, hi):
    """Gauss-Legendre nodes mapped by mid + half sin(pi u / 2) onto each
    panel [lo, hi] (arrays of one shape): nodes and weights with one more
    axis.  The map turns square-root ends into smooth ones."""
    x, w = leggauss(_RULE_NODES)
    u = _HALF_PI * x
    mid, half = (0.5 * (hi + lo))[..., None], (0.5 * (hi - lo))[..., None]
    return mid + half * np.sin(u), half * (_HALF_PI * w * np.cos(u))


_STEPS = _GRADE ** np.arange(1.0, _GRADE_LEVELS + 1.0) - 1.0


def _subpanels(edges, left=None):
    """The panels between the sorted edges of each row of a 2-D array, each
    split at the points gap * (_GRADE^j - 1), j = 1.._GRADE_LEVELS, from
    each end up to the panel's middle, gap being the distance from that end
    to the next edge beyond it (or to `left` before the first).  A singular
    point just outside a panel then sits 1/(_GRADE - 1) of a sub-panel away
    from it.  Returns the row, lower and upper end of each nonempty
    sub-panel, in order; only the levels some panel uses are built."""
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)[..., None]
    gap_lo, gap_hi = np.zeros_like(lo), np.zeros_like(hi)
    gap_lo[:, 1:], gap_hi[:, :-1] = lo[:, 1:] - lo[:, :-1], hi[:, 1:] - hi[:, :-1]
    if left is not None:
        gap_lo[:, 0] = edges[:, 0] - left
    gaps = np.stack([gap_lo, gap_hi])
    with np.errstate(divide="ignore", invalid="ignore"):
        most = np.max(np.where(gaps > 0.0, half[..., 0] / gaps, 0.0), initial=0.0)
    steps = _STEPS[: np.searchsorted(_STEPS, most) + 1]  # one level more: the quotient rounds
    d_lo, d_hi = gap_lo[..., None] * steps, gap_hi[..., None] * steps[::-1]
    points = np.concatenate([
        lo[..., None],
        np.where((d_lo > 0.0) & (d_lo < half), lo[..., None] + d_lo, np.nan),
        np.where((d_hi > 0.0) & (d_hi < half), hi[..., None] - d_hi, np.nan),
    ], axis=-1)
    used = ~np.isnan(points)
    row, start = np.nonzero(used)[0], points[used]
    end = np.append(start[1:], 0.0)
    last = np.append(row[1:] != row[:-1], True)  # a row's last sub-panel ends at its last edge
    end[last] = edges[row[last], -1]
    keep = end > start
    return row[keep], start[keep], end[keep]


def _radial_breaks(c, t, R, E0):
    """Radii where the occupied share phi(r) is not smooth, with c and t the
    center's horizontal and vertical sizes and E0 = c^4 + t^2 - R^4: a kink
    angle reaches +-pi/2 at r^2 = t + sqrt(R^4 - c^4) and |t - sqrt(R^4 - c^4)|;
    for a horizontal center two kinks merge at theta = 0 at r = c + R and
    |c - R|; for a mixed one kinks merge where a quartic of _quartic_roots
    gains or loses a pair of real roots, bracketed on a 257-point scan just
    wider than |a| -+ R and bisected.  The first and last break bound the
    ball's radial range."""
    out = set()
    S = R**4 - c**4
    if S >= 0.0:
        tp = t + math.sqrt(S)
        out.add(math.sqrt(tp))
        out.add(math.sqrt(abs(E0) / tp) if tp > 0.0 else 0.0)
    if t == 0.0:
        out |= {c + R, abs(c - R)}
    elif c > 0.0:
        a = (c**4 + t * t) ** 0.25
        # a nearly horizontal center merges kinks within rounding of |a| -+ R
        slack = 1e-9 * (a + R)
        scan = np.linspace(abs(a - R) - slack, a + R + slack, 257)
        scan = scan[scan > 0.0]
        count = lambda r: np.sum(_quartic_roots(r, c, t, R, E0)[1], axis=1)
        n_real = count(scan)
        j = np.nonzero(np.diff(n_real))[0]
        lo, hi, n_lo = scan[j], scan[j + 1], n_real[j]
        for _ in range(55):
            mid = 0.5 * (lo + hi)
            moved = count(mid) != n_lo
            lo, hi = np.where(moved, lo, mid), np.where(moved, mid, hi)
        out.update(0.5 * (lo + hi))
    return sorted(out)


def _quartic_roots(r, c, t, R, E0):
    """Roots of the kink equation of a mixed center, squared free of w:
    h(p) = q(p)^2 - gamma^2 (1 - p^4) = 0 with q = alpha p^2 + beta p - K,
    alpha = 2 r^2 c^2, beta = 4 r c R^2, gamma = 2 r^2 t, K = r^4 + E0.  A
    real root p in (0, 1] is a kink at (cos theta)^(1/2) = p, one in [-1, 0)
    a kink of the equation with -beta at -p; both have w = -q(p) / gamma.
    The companion matrix finds the roots but loses half the digits of a
    near-double pair: at gamma = 0 each root of the quadratic q is a double
    root, and a pair also closes near p = +-1.  Such a pair is real when h,
    in the factored form above, is not positive at the critical point
    between its two roots, found by Newton on h'; it is split from there
    along the local parabola.  Every real root is then polished by Newton
    on the factored h, which keeps q's own relative accuracy.  Returns the
    roots' real parts and whether each is real; (len(r), 4) arrays."""
    K = E0 + r**4
    al, be, ga = 2.0 * r * r * c * c, 4.0 * r * c * R * R, 2.0 * r * r * t
    coef = np.stack([al * al + ga * ga, 2.0 * al * be, be * be - 2.0 * al * K,
                     -2.0 * be * K, K * K - ga * ga], axis=1)
    coef /= coef[:, :1]
    companion = np.zeros((r.size, 4, 4))
    companion[:, 0, :] = -coef[:, 1:]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(companion)
    p, real = roots.real, roots.imag == 0.0
    al, be, ga2, K = al[:, None], be[:, None], (ga * ga)[:, None], K[:, None]

    def h(x):
        """h, h' and h'' at x, with q unsquared."""
        q, dq = (al * x + be) * x - K, 2.0 * al * x + be
        return (q * q - ga2 * (1.0 - x * x) * (1.0 + x * x), 2.0 * q * dq + 4.0 * ga2 * x**3,
                2.0 * (dq * dq + 2.0 * al * q) + 12.0 * ga2 * x * x)

    gap = np.abs(roots[:, :, None] - roots[:, None, :])
    gap[:, range(4), range(4)] = np.inf
    pair = np.min(gap, axis=2) <= 1e-6 * (1.0 + np.abs(roots))
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(pair):
            partner = np.argmin(gap, axis=2)
            x = 0.5 * (p + np.take_along_axis(p, partner, 1))
            for _ in range(3):
                _, d1, d2 = h(x)
                x = np.where(pair & np.isfinite(d1 / d2), x - d1 / d2, x)
            v, _, d2 = h(x)
            half = np.sqrt(np.maximum(-2.0 * v / d2, 0.0))
            upper = (roots.imag > 0.0) | ((roots.imag == 0.0) & (np.arange(4) > partner))
            p = np.where(pair, x + np.where(upper, half, -half), p)
            real = np.where(pair, v * d2 <= 0.0, real)
        for _ in range(3):
            v, d1, _ = h(p)
            p = np.where(real & np.isfinite(v / d1), p - v / d1, p)
    return p, real


def _cap(r, t, R, E0, n):
    """The integral of cos(theta)^(n-1) over the angles a vertical center's
    ball holds at each radius r: those above its one kink, where
    sin(theta) = K / (2 r^2 t), K = r^4 + E0.  With delta = pi/2 - theta_k
    that is int_0^delta sin(s)^(n-1) ds, one Gauss-Legendre panel of an
    entire function; delta = arctan2(cos theta_k, sin theta_k) keeps its
    relative accuracy however near the pole the kink lies."""
    # cos theta_k from 2 r^2 t -+ K = +-(R^4 - (r^2 -+ t)^2), each factored or
    # expanded about E0 = t^2 - R^4, whichever rounds less
    r2, R2 = r * r, R * R
    terms = r2 * (r2 + 2.0 * t) + abs(E0)
    below = np.where(np.maximum(R2, np.abs(r2 - t)) * (R2 + np.abs(r2 - t)) <= terms,
                     (R2 - (r2 - t)) * (R2 + (r2 - t)), r2 * (2.0 * t - r2) - E0)
    above = np.where(np.maximum(R2, r2 + t) * (R2 + r2 + t) <= terms,
                     (r2 + t - R2) * (r2 + t + R2), r2 * (r2 + 2.0 * t) + E0)
    delta = np.arctan2(np.sqrt(np.maximum(below * above, 0.0)), E0 + r2 * r2)
    x, w = leggauss(_RULE_NODES)
    half = 0.5 * delta[:, None]
    return np.sum(half * w * np.sin(half * (1.0 + x)) ** (n - 1), axis=1)


def _kink_angles(r, c, t, R, E0):
    """Angles tau in (-pi/2, pi/2), cos(theta) = cos(tau)^2, where the disc
    test of a center with c > 0 changes form at each radius r, and their
    p = cos(tau): the roots of
    2 r^2 c^2 p^2 +- 4 r c R^2 p + 2 r^2 t w = r^4 + E0,
    where the disc's boundary passes the edge of the unit disc (d - l = 1,
    l - d = 1 or d + l = 1 below).  Quadratic in p for a horizontal center,
    whose kinks are tau = +-arccos(p); a quartic for a mixed one, whose
    kinks are tau = arctan2(w / (1 + p^2)^(1/2), p).  Returns two (len(r), k)
    arrays, padded with tau = pi/2 and p = 0."""
    K = E0 + r**4
    if t == 0.0:
        s = 2.0 * R * R + np.sqrt(2.0 * (R**4 + r**4 + c**4))
        p = np.stack([np.abs(K) / (r * c * s), s / (2.0 * r * c)], axis=1)
        p = np.where((p > 0.0) & (p < 1.0), p, 0.0)
        tau = np.where(p > 0.0, np.arccos(p), _HALF_PI)
        return np.concatenate([tau, -tau], 1), np.concatenate([p, p], 1)
    al, be, ga = (v[:, None] for v in (2.0 * r * r * c * c, 4.0 * r * c * R * R, 2.0 * r * r * t))
    root, real = _quartic_roots(r, c, t, R, E0)
    w = (K[:, None] - (al * root + be) * root) / ga
    p = np.where(real & (np.abs(root) <= 1.0), np.abs(root), 0.0)
    return np.where(p > 0.0, np.arctan2(w / np.sqrt(1.0 + p * p), p), _HALF_PI), p


def _angle_panels(r, geo, n, mirror):
    """The panels in tau that _occupancy integrates over at the radii r, as
    arrays of row, lower end and upper end: (-pi/2, pi/2) split at the
    kinks, where a kink merged into the pole does not count.  With mirror,
    only the half tau > 0."""
    tau, p = _kink_angles(r, *geo)
    tau = np.where((4.0 * p) ** (2 * n) <= _EPS, _HALF_PI, tau)  # merged into the pole
    pole = np.full((r.size, 1), _HALF_PI)
    row, lo, hi = _subpanels(np.sort(np.column_stack([-pole, tau, pole]), 1))
    keep = hi > 0.0 if mirror else slice(None)
    return row[keep], lo[keep], hi[keep]


def _occupancy(r, geo, n):
    """phi(r): the share of the gauge sphere of radius r inside the ball.

    A vertical center holds the angles above its one kink, a cap valued by
    _cap.  Otherwise the share psi_n of _disc_share is integrated with the
    sphere's polar law in the one angle tau, cos(theta) = cos(tau)^2, so
    p = cos(tau), w = sin(tau) (1 + cos(tau)^2)^(1/2) and the weight
    cos(theta)^(n-1) dtheta is 2 cos(tau)^(2n-1) / (1 + cos(tau)^2)^(1/2) dtau.
    tau is smooth at the equator (theta ~ 2^(1/2) tau) and at the poles
    (p ~ pi/2 - |tau|), where theta has a branch point, so one set of
    sine-mapped panels, split at the kinks and graded toward close ones
    (_subpanels, _angle_panels), covers the whole sphere.  A kink so near a
    pole that the sphere's measure between them, ~(4p)^(2n)/n, is below
    rounding is merged into the pole.  A horizontal center's share is even
    in tau and its edges are symmetric, so only the panels above 0 and the
    middle panel's nodes above 0 are valued, twice.  Radii go in blocks and
    panels in chunks, so memory stays bounded whatever the grading."""
    norm = math.gamma((n + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(n / 2.0))
    if geo[0] == 0.0:
        return norm * _cap(r, *geo[1:], n)
    mirror = geo[1] == 0.0
    upper = leggauss(_RULE_NODES)[0] > 0.0
    step = max(1, BLOCK_FLOATS // (_RULE_NODES if n < 3 else _RULE_NODES**2))
    phi = np.zeros(r.size)
    for start in range(0, r.size, _ROWS):
        rb = r[start : start + _ROWS]
        row, lo, hi = _angle_panels(rb, geo, n, mirror)
        for i in range(0, row.size, step):
            part = slice(i, i + step)
            x, w = _sine_panels(lo[part], hi[part])
            take = np.ones(x.shape, dtype=bool)
            if mirror:
                take[lo[part] < 0.0] = upper  # the middle panel: its nodes above 0
            rows = np.broadcast_to(row[part][:, None], x.shape)[take]
            x, w = x[take], w[take]
            p = np.cos(x)
            lift = np.sqrt(1.0 + p * p)
            share = _disc_share(rb[rows], p * p, np.sin(x) * lift, geo, n)
            weight = 2.0 * w * p ** (2 * n - 1) / lift
            phi[start : start + rb.size] += np.bincount(rows, weight * share, minlength=rb.size)
    return (2.0 * norm if mirror else norm) * phi


def _disc_share(r, eta2, w, geo, n):
    """psi_n: the mass, under the law of (u, v), of the disc that
    |a^-1 x|_h < R cuts out at x = delta_r(theta, g), given eta2 = cos(theta)
    and w = sin(theta) (arrays of one shape, like r).  Its center lies at
    d = H/B >= 1 and its radius is l = R^2/B, with B = 2 r c cos(theta)^(1/2)
    and H^2 = (r^2 cos(theta) + c^2)^2 + (r^2 w - t)^2; k = (1 + d^2 - l^2)/(2d).
    n = 1: (u, v) is uniform on the unit circle and psi = arccos(k)/pi.
    n = 2: uniform on the unit disc and psi = lens area / pi.
    n >= 3: the density (n-1)/pi (1 - s)^(n-2), s = u^2 + v^2, is the
    divergence of V = (u, v) G(s), 2 pi s G = 1 - (1 - s)^(n-1), so by
    Green's theorem psi is V's flux out of the lens: arccos(k)/pi through the
    unit circle plus the flux through the disc's own arc,
    int_0^psi0 G(s) (A - (1 - s)) dpsi with A = 1 + l^2 - d^2, the arc
    angle psi measured from its point nearest the origin and
    s = (d - l)^2 + 4 d l sin(psi/2)^2.  Where |d - l| >= 1/2 the arc keeps
    off the origin and G - 1/(2 pi s), which vanishes on the unit circle,
    takes G's place: psi is then [the disc holds the origin] plus the arc
    flux alone, so a thin lens loses nothing to cancellation.  The arc flux
    is one Gauss-Legendre panel of _RULE_NODES nodes.
    1 - k and 1 + k come from R^4 - (H - B)^2 and (H + B)^2 - R^4, and A B^2
    from B^2 - M and R^4 - (H - B)(H + B), each in the algebraic form with
    the smaller rounding bound; psi0 comes from the lens's half chord and
    1 - s from a product of sines, so neither cancels."""
    c, t, R, E0 = geo
    r2, R2 = r * r, R * R
    D = r2 * w - t
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        B = 2.0 * r * c * np.sqrt(eta2)
        H = np.sqrt((r2 * eta2 + c * c) ** 2 + D * D)
        Hm = ((r2 * eta2 - c * c) ** 2 + D * D) / (H + B)  # H - B
        Hp = H + B
        M = E0 + r2 * (r2 + 2.0 * c * c * eta2 - 2.0 * t * w)  # H^2 - R^4
        bound = B * (2.0 * H + B) + abs(E0) + r2 * (r2 + 2.0 * c * c * eta2 + 2.0 * t * np.abs(w))
        den = 2.0 * B * H
        om = np.where(np.maximum(R2, Hm) * (R2 + Hm) <= bound,
                      (R2 - Hm) * (R2 + Hm), B * (2.0 * H - B) - M) / den
        op = np.where(np.maximum(R2, Hp) * (R2 + Hp) <= bound,
                      (Hp - R2) * (Hp + R2), M + B * (2.0 * H + B)) / den
        half_arc = np.arctan2(np.sqrt(np.maximum(om, 0.0)), np.sqrt(np.maximum(op, 0.0)))
        if n == 1:
            return half_arc / _HALF_PI
        y = np.sqrt(np.maximum(om * op, 0.0))  # half chord of the lens
        if n == 2:
            k = 0.5 * (op - om)
            minor = y**3 * B / R2 * _segment_over_cube(np.minimum(y * B / R2, 1.0))
            big = np.where(H / B >= k, minor, math.pi * (R2 / B) ** 2 - minor)
            lens = (2.0 * half_arc - k * y + big) / math.pi
            inside = np.where(H + R2 < B, (R2 / B) ** 2, 0.0)
            return np.where(om < 0.0, inside, np.where(op < 0.0, 1.0, lens))
        psi0 = np.arctan2(y, (Hm * Hp + R2 * R2) / den)  # d - k = l cos(psi0)
        dm, dl = M / (B * (H + R2)), H * R2 / (B * B)  # d - l, d l
        A = np.where(np.maximum(R2 * R2, Hm * Hp) <= bound,
                     R2 * R2 - Hm * Hp, B * B - M) / (B * B)
        far = np.abs(dm) >= 0.5
        x, wg = leggauss(_RULE_NODES)
        half = 0.5 * psi0[..., None]
        s = dm[..., None] ** 2 + 4.0 * dl[..., None] * np.sin(0.5 * half * (1.0 + x)) ** 2
        q = 4.0 * dl[..., None] * np.sin(0.5 * half * (3.0 + x)) * np.sin(0.5 * half * (1.0 - x))
        g = np.ones_like(q)  # 2 pi G = sum of q^j, j < n - 1
        for _ in range(n - 2):
            g = 1.0 + q * g
        g = np.where(far[..., None], -(q ** (n - 1)) / s, g)
        flux = np.sum(half * wg * g * (A[..., None] - q), axis=-1) / (2.0 * math.pi)
        # arccos(k) = arctan2(2 d y, 2 - A): A rounds less than 1 - k, 1 + k
        return np.where(far, dm < 0.0, np.arctan2(2.0 * H / B * y, 2.0 - A) / math.pi) + flux


_SEGMENT_SERIES = tuple(2.0 * math.comb(2 * j, j) / 4.0**j / (2 * j + 3) for j in range(6))


def _segment_over_cube(s):
    """(arcsin s - s (1 - s^2)^(1/2)) / s^3: the unit disc's minor segment of
    half chord s over s^3, by its series below s = 0.05, where the closed
    form cancels."""
    s2 = s * s
    series = np.zeros_like(s)
    for a in reversed(_SEGMENT_SERIES):
        series = series * s2 + a
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (np.arcsin(s) - s * np.sqrt((1.0 - s) * (1.0 + s))) / (s2 * s)
    return np.where(s < 0.05, series, closed)


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


def _polar_blocks(rng, f, center, radius, gp, strata, per_block, beta, reach):
    """Polar draw with the radial law tilted to r^(Q-1+beta) on [0, reach],
    stratified over radius shells; membership in B(center, radius) is
    tested via hdist.  All strata come from one draw: stratum k takes
    u = (k + U)/strata.  Returns the weights as (strata, per_block) blocks
    and their count (every draw is kept)."""
    n = gp.n
    p = gp.Q + beta
    span = reach**p
    dens_c = p / (gp.omega_Q * span)  # density factor / r^beta
    k = np.repeat(np.arange(strata), per_block)
    u = (k + rng.random(strata * per_block)) / strata
    r = (u * span) ** (1.0 / p)
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
):
    """Monte Carlo estimate of int_{B(center, radius)} f dx, where f maps an
    (N, 2n+1) array of points to N values (other shapes raise ValueError).

    Returns (estimate, stderr).  The default path draws box candidates,
    rejects to the unit gauge ball (a scale-free test) and maps them into the
    ball by dilation and left translation.  When f carries an |x|^beta
    singularity at an interior origin, pass origin_exponent = beta in (-Q, 0]:
    sampling switches to a polar law with radial density proportional to
    r^(Q-1+beta) on the enclosing origin-centered ball, radius-stratified,
    with ball membership tested via hdist.  Radial integrands have the exact
    ball_rule; this estimator serves the tests that check the rule.

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

    if beta < 0.0 and c_norm < radius:
        strata = max(1, min(16, mc.samples // (shards * 8)))
        per_block = max(2, mc.samples // (shards * strata))
        draw = lambda rng: _polar_blocks(
            rng, f, center.coords, radius, gp, strata, per_block, beta, c_norm + radius
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
