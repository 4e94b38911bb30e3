"""Two-power-weighted Morrey norms, the dilation lemma check, and the
truncated-extremizer sharpness experiment.

The norm evaluates w_1(B)^{-(lambda+1/q)} (int_B |f|^q w_2)^{1/q} over a
finite grid of balls and reports the largest cell.  Profiles are radial,
so no cell is random: origin-centered cells are exact 1-D piecewise power
integrals, and each off-center cell is one quad.ball_rule, which values
both the content and the ball weight w_1 = int_B |x|^alpha.  The maximum
is then a lower bound of the norm, to the rule's ~1e-10 accuracy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .constants import KINDS
from .hgroup import GroupParams, HPoint, dilate_arrays, hnorm_arrays
from .operators import RadialProfile, apply_radii, extremizer_profile, log_panels
from .params import Q_PLUS_SIGMA_J, DivergenceError, ParamSet, derive_exponents, validate, violated
from .quad import ball_rule
from .report import VerificationReport, compare

__all__ = [
    "MorreySpaceSpec",
    "BallGrid",
    "MorreyEstimate",
    "default_grid",
    "source_space",
    "morrey_norm",
    "power_norm",
    "verify_dilation",
    "sharpness_ratio",
]

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


def _factor_index(p: ParamSet, j: int) -> int:
    """The 0-based index of factor j (1-based) of p; IndexError outside 1..m."""
    if not 1 <= j <= p.m:
        raise IndexError(f"factor index {j} out of range 1..{p.m}")
    return j - 1


def source_space(p: ParamSet, j: int) -> MorreySpaceSpec:
    """Factor space of index j (1-based): exponents (q_j, lambda_j), ball
    weight |x|^alpha, content weight |x|^(q_j gamma_j / q)."""
    i = _factor_index(p, j)
    qj = p.q_list[i]
    return MorreySpaceSpec(
        q=qj,
        lam=p.lam_list[i],
        alpha=p.alpha,
        gamma_w=qj * p.gamma_list[i] / p.q,
    )


@lru_cache(maxsize=None)
def default_grid(n: int) -> BallGrid:
    """Center norms {0, 0.25, 1, 4}, one horizontal and the vertical
    direction, 17 log-spaced radii over [1e-2, 1e2].  Built once per n on
    first use and shared, so its direction coordinates are read-only."""
    dim = 2 * n + 1
    horiz = [0.0] * dim
    horiz[0] = 1.0
    vert = [0.0] * dim
    vert[-1] = 1.0
    directions = (HPoint(tuple(horiz)), HPoint(tuple(vert)))
    for d in directions:
        d.coords.flags.writeable = False
    return BallGrid(
        center_radii=(0.0, 0.25, 1.0, 4.0),
        center_directions=directions,
        radii=tuple(np.geomspace(1e-2, 1e2, 17)),
    )


@dataclass(frozen=True)
class MorreyEstimate:
    """One grid cell B(a, R), |a| = argmax_center_radius, R = argmax_R, and
    its value.  morrey_norm returns the cell of largest value over the grid."""

    value: float
    argmax_center_radius: float
    argmax_R: float


def _check_origin(exponent: float, Q: float) -> None:
    """Raise when the cell integrand |x|^exponent is not integrable at the origin."""
    if exponent <= -Q:
        raise DivergenceError(
            f"Morrey cell integral diverges at the origin: exponent {exponent:+.6g} <= -Q",
            conditions=(violated(Q_PLUS_SIGMA_J, f"q*sigma+gamma_w = {exponent:+.6g} <= -Q"),),
        )


def _not_finite(cr: float, R: float, detail: str) -> ValueError:
    return ValueError(
        f"Morrey cell B(|a|={cr:g}, R={R:g}) is not finite in double precision: {detail}"
    )


def _ball_weight(cr: float, R: float, alpha: float, gp: GroupParams, rule) -> float:
    """w_1(B(a, R)) = int_B |x|^alpha dx: closed form at the origin and for
    alpha = 0, the cell's rule otherwise."""
    if cr == 0.0:
        return gp.omega_Q * R ** (gp.Q + alpha) / (gp.Q + alpha)
    if alpha == 0.0:
        return gp.Omega_Q * R**gp.Q
    inner = rule.r_in ** (gp.Q + alpha) / (gp.Q + alpha) if rule.inner else 0.0
    return rule.inner * inner + float(rule.weights @ rule.nodes**alpha)


@np.errstate(over="ignore", invalid="ignore")  # every non-finite cell is refused by name
def _cell_values_profile(
    f: RadialProfile,
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
) -> List[MorreyEstimate]:
    """Every grid cell of a radial profile in fixed order, valued as
    w_1(B)^-(lambda+1/q) (int_B |f|^q w_2)^(1/q), none of them random:
    origin cells are closed-form moments, off-center cells their ball_rule
    split at the profile's breakpoints, with the exact moment below the
    rule's r_in.  Rules come from quad.ball_rule's per-process cache, so a
    grid valued again, for another profile with the same breakpoints,
    builds none.  The origin is visited with its first direction only,
    since all directions coincide there.

    A cell is 1-homogeneous in f, so the profile is divided by its largest
    amplitude before its q-th power, which would otherwise overflow or
    underflow at large q, and the cells are multiplied back.  A ball weight
    of 0 or inf, an overflow or a value that is not finite raises
    ValueError naming the cell, since max() would skip a NaN cell."""
    space.check_weights(gp.Q)
    unit = max((A for _, _, A, _ in f.segments), default=1.0)
    fq = RadialProfile(tuple((lo, hi, A / unit, p) for lo, hi, A, p in f.segments)).power_q(space.q)
    # |f|^q |x|^gamma_w as one power per segment: two separate powers with
    # large opposite exponents overflow to inf * 0 at the rule's nodes
    fw = RadialProfile(tuple((lo, hi, A, p + space.gamma_w) for lo, hi, A, p in fq.segments))
    p0 = fw.origin_exponent()
    if p0 is not None:
        _check_origin(p0, gp.Q)
    k = gp.Q - 1.0
    q = space.q
    pref_exp = -(space.lam + 1.0 / q)
    breakpoints = fw.breakpoints()
    cells: List[MorreyEstimate] = []
    for cr in grid.center_radii:
        for di, direction in enumerate(grid.center_directions):
            if cr == 0.0 and di > 0:
                continue
            center = HPoint(dilate_arrays(cr, direction.coords, gp.n))
            for R in grid.radii:
                rule = None
                try:
                    if cr == 0.0:
                        content = gp.omega_Q * fw.moment(k, 0.0, R)
                    else:
                        rule = ball_rule(center, R, gp, breakpoints)
                        inner = fw.moment(k, 0.0, rule.r_in) if rule.inner else 0.0
                        content = rule.inner * inner + float(rule.weights @ fw(rule.nodes))
                    w1 = _ball_weight(cr, R, space.alpha, gp, rule)
                except OverflowError as exc:
                    raise _not_finite(cr, R, f"overflow ({exc})") from exc
                if not 0.0 < w1 < math.inf:
                    raise _not_finite(cr, R, f"ball weight {w1:.6g}")
                value = 0.0 if content <= 0.0 else unit * w1**pref_exp * content ** (1.0 / q)
                if not math.isfinite(value):
                    raise _not_finite(
                        cr, R, f"content {content:.6g}, ball weight {w1:.6g}, value {value:.6g}"
                    )
                cells.append(MorreyEstimate(value, cr, R))
    return cells


def morrey_norm(
    f: RadialProfile,
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
) -> MorreyEstimate:
    """The first grid cell of largest value of the weighted Morrey norm of a
    radial profile: origin cells in closed form, off-center cells by their
    ball_rule, so the value is a lower bound of the norm with no random
    draw."""
    cells = _cell_values_profile(f, space, grid, gp)
    if not cells:
        raise ValueError("empty grid")
    return max(cells, key=lambda c: c.value)


def power_norm(p: ParamSet, j: int, gp: GroupParams) -> float:
    """Exact norm of the extremizer r^{sigma_j} in the j-th (1-based) source
    space of a strict set: its origin cell at any radius,
    (omega_Q/(Q+alpha))^-(lambda_j+1/q_j) (omega_Q/(Q+a_j))^(1/q_j).  The
    content exponent a_j = q_j sigma_j + q_j gamma_j / q then satisfies
    a_j - alpha = (Q + alpha) q_j lambda_j < 0, so by the bathtub principle
    (Lieb and Loss, Analysis, Thm 1.14) the centered ball holds the most
    content of all sets of equal weight int_S |x|^alpha: the origin cell is
    the sup over all balls."""
    i = _factor_index(p, j)
    qj, lj = p.q_list[i], p.lam_list[i]
    qa = gp.Q + qj * derive_exponents(p).sigma_list[i] + qj * p.gamma_list[i] / p.q
    return (gp.omega_Q / (gp.Q + p.alpha)) ** -(lj + 1.0 / qj) * (gp.omega_Q / qa) ** (1.0 / qj)


def verify_dilation(
    f: RadialProfile,
    factors: Sequence[float],
    space: MorreySpaceSpec,
    grid: BallGrid,
    gp: GroupParams,
    seed: int = 0,
) -> List[VerificationReport]:
    """Check the dilation law cell-by-cell, one record per factor t: the
    norm cells of r -> f(t r) on the 1/t-scaled grid equal t^sigma_space
    times the cells of f on the original grid, sigma_space = Q*lam -
    gamma_w/q + alpha*(lam + 1/q).  The base grid is valued once; each
    record's runtime_ms times its own dilated grid.

    The comparison holds to rounding because every cell is scale-covariant
    under the coupled scaling: origin cells are closed-form power
    integrals, and the ball_rule of a dilated off-center cell places its
    nodes at the dilated radii, since its breaks and kinks depend only on
    the ratios of the radii, the center and the profile's breakpoints.
    seed is only echoed in the records.
    """
    ts = [float(t) for t in factors]
    if not all(t > 0.0 for t in ts):
        raise ValueError(f"dilation factors must be positive, got {list(factors)}")
    sigma_space = (
        gp.Q * space.lam
        - space.gamma_w / space.q
        + space.alpha * (space.lam + 1.0 / space.q)
    )
    base = _cell_values_profile(f, space, grid, gp)
    records = []
    for t in ts:
        start = time.perf_counter()
        dil = _cell_values_profile(f.dilated(t), space, grid.scaled(1.0 / t), gp)
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
            seed=seed,
            runtime_ms=int(round(1000.0 * (time.perf_counter() - start))),
        ))
    return records


def sharpness_ratio(
    kind,
    p: ParamSet,
    truncation: Tuple[float, float],
    grid: BallGrid,
    seed: int = 0,
) -> VerificationReport:
    """Truncated-extremizer lower bound of the operator norm, divided by
    the closed-form constant.

    The numerator is the largest origin cell B(0, R), R in grid.radii, of
    T(f_1..f_m), f_j = r^{sigma_j} on [r_min, r_max]; any ball bounds
    ||T f|| from below.  Its content omega_Q int_0^R T^q r^(Q-1+gamma) dr
    takes the log_panels rule between r_0 = min(radii[0], r_min)/4, the
    radii and the truncation edges below the largest radius.  Below r_0 it
    is T(r_0)^q r_0^(Q+gamma)/(Q+gamma), a lower bound as T is
    nonincreasing, and exact for the max kernel, constant below r_min.

    Each denominator is power_norm, the exact norm of the pure power
    r^{sigma_j}, which bounds ||f_j|| from above: the ratio is a certified
    lower bound of the operator norm for every strict set.  A ball weight
    of 0 or inf raises ValueError naming the cell.  seed is only echoed in
    the record.
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

    extremizers = [extremizer_profile(e, j + 1, truncation=(r_min, r_max)) for j in range(p.m)]
    denom = math.prod(power_norm(p, j + 1, gp) for j in range(p.m))

    Q, q, gw = gp.Q, p.q, p.gamma
    R = np.asarray(grid.radii, dtype=float)
    r0 = min(R[0], r_min) / 4.0
    edges = np.array(sorted({r0, *R.tolist(), *(b for b in (r_min, r_max) if b < R[-1])}))
    r, w, interval = log_panels(edges)
    tf = apply_radii(kind, extremizers, np.append(r, r0), gp)
    pieces = np.bincount(interval, w * tf[:-1] ** q * r ** (Q - 1.0 + gw), minlength=edges.size - 1)
    below = tf[-1] ** q * r0 ** (Q + gw) / (Q + gw)
    content = gp.omega_Q * (below + np.append(0.0, np.cumsum(pieces)))[np.searchsorted(edges, R)]
    with np.errstate(over="ignore"):  # an inf weight is refused by name below
        w1 = gp.omega_Q * R ** (Q + p.alpha) / (Q + p.alpha)
    for i in (0, -1):  # w1 grows with R, so its ends bound it
        if not 0.0 < w1[i] < math.inf:
            raise _not_finite(0.0, R[i], f"ball weight {w1[i]:.6g}")
    num = float(np.max(w1 ** -(p.lam + 1.0 / q) * content ** (1.0 / q)))

    ratio = num / denom
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    return compare(
        f"sharpness {kind} m={p.m} truncation=({r_min:g},{r_max:g})",
        constant.value,
        ratio,
        0.1,
        convention_note=(
            f"ratio/constant = {ratio / constant.value:.8f}; "
            "certified lower bound: exact origin cells over pure-power denominators; "
            f"{constant.convention_note}"
        ),
        seed=seed,
        runtime_ms=runtime_ms,
    )
