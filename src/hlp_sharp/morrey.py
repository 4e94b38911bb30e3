"""Two-power-weighted Morrey norms, the dilation lemma check, and the
truncated-extremizer sharpness experiment.

The norm estimator evaluates w_1(B)^{-(lambda+1/q)} (int_B |f|^q w_2)^{1/q}
over a finite grid of balls and reports the largest cell estimate.
Origin-centered cells reduce to exact 1-D piecewise power integrals;
off-center cells use Monte Carlo with one fixed random stream per cell and
carry its stderr, so the maximum is an estimate of the grid sup, not a
certified bound.  Coupled runs (dilation, sharpness) share their noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .constants import KINDS
from .hgroup import GroupParams, HPoint, dilate_arrays, hnorm_arrays
from .operators import RadialProfile, apply_radii, extremizer_profile
from .params import Q_PLUS_SIGMA_J, DivergenceError, ParamSet, derive_exponents, validate, violated
from .quad import MCSpec, derive_seed, eval_batch, mc_ball_integral
from .report import VerificationReport, compare

__all__ = [
    "MorreySpaceSpec",
    "BallGrid",
    "MorreyEstimate",
    "default_grid",
    "source_space",
    "morrey_norm",
    "morrey_norm_mc",
    "verify_dilation",
    "sharpness_ratio",
]

_STREAM_INTEGRAL = 0
_STREAM_WEIGHT = 1


@dataclass(frozen=True)
class MorreySpaceSpec:
    """Target/source space parameters: exponent q, Morrey index lambda,
    and the two power-weight exponents w_1 = |x|^alpha, w_2 = |x|^gamma_w."""

    q: float
    lam: float
    alpha: float = 0.0
    gamma_w: float = 0.0

    def __post_init__(self) -> None:
        if not self.q >= 1.0:
            raise ValueError("q must be >= 1")
        if not (-1.0 / self.q <= self.lam < 0.0):
            raise ValueError("lambda must lie in [-1/q, 0)")

    def check_weights(self, Q: float) -> None:
        if not self.alpha > -Q:
            raise ValueError(f"alpha must exceed -Q = {-Q}")
        if not self.gamma_w > -Q:
            raise ValueError(f"gamma_w must exceed -Q = {-Q}")


@dataclass(frozen=True)
class BallGrid:
    """Finite family of balls B(a, R): center norms x directions x radii."""

    center_radii: Tuple[float, ...]
    center_directions: Tuple[HPoint, ...]
    radii: Tuple[float, ...]

    def __post_init__(self) -> None:
        if 0.0 not in self.center_radii or any(c < 0.0 for c in self.center_radii):
            raise ValueError("center_radii must be nonnegative and include 0")
        if not self.center_directions:
            raise ValueError("at least one center direction required")
        if not all(
            r > 0.0 for r in self.radii
        ) or list(self.radii) != sorted(self.radii):
            raise ValueError("radii must be positive and ascending")
        n = self.center_directions[0].n
        for d in self.center_directions:
            if d.n != n or abs(float(hnorm_arrays(d.coords, d.n)) - 1.0) > 1e-12:
                raise ValueError("center directions must be unit-norm points of one group")

    def scaled(self, factor: float) -> "BallGrid":
        """Grid with all center norms and radii multiplied by factor."""
        factor = float(factor)
        if not factor > 0.0:
            raise ValueError("scale factor must be positive")
        return BallGrid(
            center_radii=tuple(c * factor for c in self.center_radii),
            center_directions=self.center_directions,
            radii=tuple(r * factor for r in self.radii),
        )


def source_space(p: ParamSet, j: int) -> MorreySpaceSpec:
    """Factor space of index j (1-based): exponents (q_j, lambda_j), ball
    weight |x|^alpha, content weight |x|^(q_j gamma_j / q)."""
    qj = p.q_list[j - 1]
    return MorreySpaceSpec(
        q=qj,
        lam=p.lam_list[j - 1],
        alpha=p.alpha,
        gamma_w=qj * p.gamma_list[j - 1] / p.q,
    )


def default_grid(n: int) -> BallGrid:
    """Center norms {0, 0.25, 1, 4}, one horizontal and the vertical
    direction, 17 log-spaced radii over [1e-2, 1e2]."""
    dim = 2 * n + 1
    horiz = [0.0] * dim
    horiz[0] = 1.0
    vert = [0.0] * dim
    vert[-1] = 1.0
    return BallGrid(
        center_radii=(0.0, 0.25, 1.0, 4.0),
        center_directions=(HPoint(tuple(horiz)), HPoint(tuple(vert))),
        radii=tuple(np.geomspace(1e-2, 1e2, 17)),
    )


@dataclass(frozen=True)
class MorreyEstimate:
    """One grid cell B(a, R), |a| = argmax_center_radius, R = argmax_R: its
    value and the Monte Carlo stderr of that value (0 when the cell is
    exact).  The norm functions return the cell of largest value, the
    largest cell estimate of the Morrey sup over the evaluated grid."""

    value: float
    argmax_center_radius: float
    argmax_R: float
    stderr: float


def _cell_center(cr: float, direction: HPoint, n: int) -> HPoint:
    return HPoint(dilate_arrays(cr, direction.coords, n))


def _cells(
    space: MorreySpaceSpec, grid: BallGrid, gp: GroupParams, mc: MCSpec, integral: Callable
) -> List[MorreyEstimate]:
    """Every cell of the grid in fixed order, valued as
    w_1(B)^-(lambda+1/q) (int_B |f|^q w_2)^(1/q) with first-order error
    propagation from the two Monte Carlo factors.  integral(cell, cr,
    center, R) is the content integral and its stderr; cell = (ci, di, ri)
    keys the random streams.  The origin is visited with its first
    direction only, since all directions coincide there."""
    q = space.q
    pref_exp = -(space.lam + 1.0 / q)
    cells: List[MorreyEstimate] = []
    for ci, cr in enumerate(grid.center_radii):
        for di, direction in enumerate(grid.center_directions):
            if cr == 0.0 and di > 0:
                continue
            center = _cell_center(cr, direction, gp.n)
            for ri, R in enumerate(grid.radii):
                cell = (ci, di, ri)
                content, se_i = integral(cell, cr, center, R)
                w1, se_w = _ball_weight(center, cr, R, space.alpha, gp, mc, cell)
                if content <= 0.0 or w1 <= 0.0:
                    cells.append(MorreyEstimate(0.0, cr, R, 0.0))
                    continue
                value = w1**pref_exp * content ** (1.0 / q)
                rel_sq = (se_i / (q * content)) ** 2 + (pref_exp * se_w / w1) ** 2
                cells.append(MorreyEstimate(value, cr, R, value * math.sqrt(rel_sq)))
    return cells


def _cell_mc(mc: MCSpec, cell: Tuple[int, int, int], stream: int) -> MCSpec:
    """Monte Carlo settings of one stream of the cell with indices
    (ci, di, ri): the seed is keyed by the run seed, the cell and the stream,
    so coupled runs over the same grid share their draws cell by cell."""
    return MCSpec(
        samples=mc.samples,
        seed=derive_seed(derive_seed(mc.seed, *cell), stream),
        shards=mc.shards,
    )


def _check_origin(exponent: float, Q: float) -> None:
    """Raise when the cell integrand |x|^exponent is not integrable at the origin."""
    if exponent <= -Q:
        raise DivergenceError(
            f"Morrey cell integral diverges at the origin: exponent {exponent:+.6g} <= -Q",
            conditions=(violated(Q_PLUS_SIGMA_J, f"q*sigma+gamma_w = {exponent:+.6g} <= -Q"),),
        )


def _ball_weight(
    center: HPoint,
    cr: float,
    R: float,
    alpha: float,
    gp: GroupParams,
    mc: MCSpec,
    cell: Tuple[int, int, int],
) -> Tuple[float, float]:
    """w_1(B(a, R)) = int_B |x|^alpha dx and its stderr (0 when exact)."""
    if cr == 0.0:
        return gp.omega_Q * R ** (gp.Q + alpha) / (gp.Q + alpha), 0.0
    if alpha == 0.0:
        return gp.Omega_Q * R**gp.Q, 0.0
    beta = min(0.0, alpha)

    def h(X):
        r = hnorm_arrays(X, gp.n)
        return np.where(r > 0.0, r**alpha, 0.0)

    return mc_ball_integral(
        h, center, R, gp, _cell_mc(mc, cell, _STREAM_WEIGHT), origin_exponent=beta
    )


def _cell_tilt(
    fq: RadialProfile, gamma_w: float, cr: float, R: float, s_lo: float, s_hi: float, Q: float
) -> float:
    """Radial tilt for an off-center cell: the integrand behaves like
    r^(p+gamma_w) on the sampled window, with p the profile exponent at the
    window's geometric midpoint.  Clipped to (-Q, 0] for a valid polar law.

    The exponent comes from the segment table, which dilation rescales
    without touching powers, so coupled cells of a dilated pair see the same
    tilt and the same underlying uniform draws.
    """
    lo = max(s_lo, cr - R, 0.0)
    hi = min(s_hi, cr + R)
    if not hi > lo:
        return 0.0
    mid = math.sqrt(lo * hi) if lo > 0.0 else hi / 2.0
    p = fq.local_exponent(mid)
    if p is None:
        return 0.0
    return min(0.0, max(p + gamma_w, -0.975 * Q))


def _cell_values_profile(
    f: RadialProfile,
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
    mc: MCSpec,
) -> List[MorreyEstimate]:
    """All grid-cell values for a radial profile: exact origin cells,
    Monte Carlo off-center cells keyed by cell index."""
    space.check_weights(gp.Q)
    gw = space.gamma_w
    fq = f.power_q(space.q) if not f.is_zero else f
    p0 = fq.origin_exponent()
    if p0 is not None:
        _check_origin(p0 + gw, gp.Q)
    s_lo, s_hi = fq.support()

    def integrand(X):
        r = hnorm_arrays(X, gp.n)
        fv = fq(r)
        out = np.zeros_like(fv)
        mask = fv > 0.0
        if np.any(mask):
            out[mask] = fv[mask] * r[mask] ** gw
        return out

    def integral(cell, cr, center, R):
        if cr == 0.0:
            return gp.omega_Q * fq.moment(gw + gp.Q - 1.0, 0.0, R), 0.0
        return mc_ball_integral(
            integrand,
            center,
            R,
            gp,
            _cell_mc(mc, cell, _STREAM_INTEGRAL),
            origin_exponent=_cell_tilt(fq, gw, cr, R, s_lo, s_hi, gp.Q),
            radial_window=(s_lo, s_hi),
        )

    return _cells(space, grid, gp, mc, integral)


def _reduce(cells: Sequence[MorreyEstimate]) -> MorreyEstimate:
    """The first cell of largest value."""
    if not cells:
        raise ValueError("empty grid")
    return max(cells, key=lambda c: c.value)


def morrey_norm(
    f: RadialProfile,
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
    mc: MCSpec,
) -> MorreyEstimate:
    """Largest grid-cell estimate of the weighted Morrey norm of a radial
    profile; origin cells are exact, off-center cells carry Monte Carlo
    stderr."""
    return _reduce(_cell_values_profile(f, space, grid, gp, mc))


def morrey_norm_mc(
    f: Callable,
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
    mc: MCSpec,
    origin_exponent: float = 0.0,
) -> MorreyEstimate:
    """Largest grid-cell estimate of the Morrey norm of a general (possibly
    non-radial) function, every cell a Monte Carlo estimate with its
    stderr.  origin_exponent is the power behavior of |f| at the origin,
    used to importance-tilt singular cells.
    """
    space.check_weights(gp.Q)
    q, gw = space.q, space.gamma_w
    beta = min(0.0, q * float(origin_exponent) + gw)
    _check_origin(beta, gp.Q)

    def integrand(X):
        r = hnorm_arrays(X, gp.n)
        fv = np.abs(eval_batch(f, X)) ** q
        out = np.zeros_like(fv)
        mask = (fv > 0.0) & (r > 0.0)
        if np.any(mask):
            out[mask] = fv[mask] * r[mask] ** gw
        return out

    def integral(cell, cr, center, R):
        return mc_ball_integral(
            integrand, center, R, gp, _cell_mc(mc, cell, _STREAM_INTEGRAL), origin_exponent=beta
        )

    return _reduce(_cells(space, grid, gp, mc, integral))


def verify_dilation(
    f: RadialProfile,
    factors: Sequence[float],
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
    mc: MCSpec,
) -> List[VerificationReport]:
    """Check the dilation law cell-by-cell, one record per factor t: the
    norm cells of r -> f(t r) on the 1/t-scaled grid equal t^sigma_space
    times the cells of f on the original grid, sigma_space = Q*lam -
    gamma_w/q + alpha*(lam + 1/q).  The base grid is valued once; each
    record's runtime_ms times its own dilated grid.

    The comparison is exact (to rounding) because every cell estimator is
    scale-covariant under the coupled scaling: origin cells are closed-form
    power integrals, and off-center cells reuse the same random stream with
    a scale-free acceptance test.
    """
    ts = [float(t) for t in factors]
    if not all(t > 0.0 for t in ts):
        raise ValueError(f"dilation factors must be positive, got {list(factors)}")
    sigma_space = (
        gp.Q * space.lam
        - space.gamma_w / space.q
        + space.alpha * (space.lam + 1.0 / space.q)
    )
    base = _cell_values_profile(f, space, grid, gp, mc)
    records = []
    for t in ts:
        start = time.perf_counter()
        dil = _cell_values_profile(f.dilated(t), space, grid.scaled(1.0 / t), gp, mc)
        factor = t**sigma_space
        pairs = list(zip(base, dil))
        # the first ratio farthest from 1, or NaN when a zero base cell is not zero dilated
        ratios = [d.value / (factor * b.value) for b, d in pairs if b.value != 0.0]
        worst = max([1.0, *ratios], key=lambda r: abs(r - 1.0))
        if any(d.value != 0.0 for b, d in pairs if b.value == 0.0):
            worst = math.nan
        records.append(compare(
            f"verify-dilation t={t:g}",
            1.0,
            worst,
            1e-10,
            convention_note=(
                f"worst cell ratio of dilated/expected; sigma_space = {sigma_space:+.12g}"
            ),
            seed=mc.seed,
            runtime_ms=int(round(1000.0 * (time.perf_counter() - start))),
        ))
    return records


def _sharpness_knots(grid: BallGrid) -> np.ndarray:
    lo = min(grid.radii) / 100.0
    hi = 1.1 * (max(grid.center_radii) + max(grid.radii))
    decades = math.log10(hi / lo)
    count = max(2, int(math.ceil(48.0 * decades)))
    return np.geomspace(lo, hi, count)


def sharpness_ratio(
    kind,
    p: ParamSet,
    truncation: Tuple[float, float],
    grid: BallGrid,
    mc: MCSpec,
) -> VerificationReport:
    """Truncated-extremizer estimate of the operator norm, divided by
    the closed-form constant.

    Builds f_j = r^{sigma_j} on [r_min, r_max], tabulates T(f_1..f_m) on a
    dense radial net, and evaluates all Morrey norms on the shared grid with
    cell-coupled random streams, one denominator per distinct pair of
    extremizer and source space (coincident factors give the same value
    from the same streams).  Numerator and denominators are each the
    largest cell estimate on the grid, with Monte Carlo noise in the
    off-center cells, so the reported ratio is an estimate, not a bound, of
    the norm ratio; it converges to 1 from below as the truncation widens.
    """
    vr = validate(p, strict_sharpness=True)
    if not vr:
        raise ValueError("sharpness requires strict parameters: " + "; ".join(vr.violations))
    start = time.perf_counter()
    gp = GroupParams(n=p.n)
    e = derive_exponents(p)
    r_min, r_max = float(truncation[0]), float(truncation[1])
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    constant = KINDS[kind][0](e, gp)

    extremizers = [
        extremizer_profile(e, j + 1, truncation=(r_min, r_max)) for j in range(p.m)
    ]
    norms = {}
    denom = 1.0
    for j, f in enumerate(extremizers):
        space = source_space(p, j + 1)
        key = (f.segments, space)
        if key not in norms:
            norms[key] = morrey_norm(f, space, grid, gp, mc).value
        denom *= norms[key]

    knots = _sharpness_knots(grid)
    tf = apply_radii(kind, extremizers, knots, gp)
    numerator_profile = RadialProfile.tabulated(knots, tf, cutoff=(0.0, math.inf))
    target = MorreySpaceSpec(q=p.q, lam=p.lam, alpha=p.alpha, gamma_w=p.gamma)
    num = morrey_norm(numerator_profile, target, grid, gp, mc).value

    ratio = num / denom
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    return compare(
        f"sharpness {kind} m={p.m} truncation=({r_min:g},{r_max:g})",
        constant.value,
        ratio,
        0.1,
        convention_note=(
            f"ratio/constant = {ratio / constant.value:.8f}; both sides are grid "
            f"lower bounds; {constant.convention_note}"
        ),
        seed=mc.seed,
        runtime_ms=runtime_ms,
    )
