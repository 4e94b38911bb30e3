"""Radial profiles, the m-linear operators P_m (max kernel) and P*_m
(sum kernel), and extremizer profiles.

A profile is nothing but its disjoint power segments A*r^p on [lo, hi),
which makes q-th powers, dilations, moments and cumulative integrals
closed-form.  apply_radii is the one operator entry point: it reduces each
y_j integral to a radial one (factor omega_Q r^(Q-1)) and tabulates every
output radius in one pass per kernel.  The max kernel integrates the
product of the cumulatives by parts: Gauss-Legendre panels between edges,
a closed-form tail.  The sum kernel scales B_m from constants (pure
powers) or, for bounded supports, a Laplace contraction that sums over each
variable separately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .hgroup import GroupParams
from .params import Q_PLUS_SIGMA_J, SIGMA_NEG, DivergenceError, ExponentSet, violated
from .constants import KINDS, hilbert_closed_form
from .quad import QuadratureSpec, leggauss

__all__ = [
    "RadialProfile",
    "apply_radii",
    "extremizer_profile",
    "log_panels",
]


def _check_origin_power(lo: float, e: float) -> None:
    """Raise when r^e on a segment starting at lo is not integrable at 0."""
    if lo == 0.0 and e <= -1.0:
        raise DivergenceError(
            f"segment integral diverges at 0: exponent {e:+.6g} <= -1",
            conditions=(violated(Q_PLUS_SIGMA_J, f"segment exponent {e:+.6g} <= -1 at 0"),),
        )


def _segment_moment(lo: float, hi: float, A: float, p: float, k: float) -> float:
    """Closed form of int_lo^hi A r^(p+k) dr; raises on divergence."""
    e = p + k
    _check_origin_power(lo, e)
    if math.isinf(hi) and e >= -1.0:
        raise DivergenceError(
            f"moment diverges at infinity: exponent {e:+.6g} >= -1",
            conditions=(violated(SIGMA_NEG, f"segment exponent {e:+.6g} >= -1 at infinity"),),
        )
    if e == -1.0:
        return A * math.log(hi / lo)
    e1 = e + 1.0
    upper = 0.0 if (math.isinf(hi) and e1 < 0.0) else hi**e1
    lower = 0.0 if (lo == 0.0 and e1 > 0.0) else lo**e1
    return A * (upper - lower) / e1


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial function stored as disjoint power segments:
    segments is a sorted tuple of (lo, hi, A, p) meaning A*r^p on [lo, hi),
    with A finite and positive and p finite; gaps between segments are
    zeros.  Every constructor and every algebra method builds segments."""

    segments: Tuple[Tuple[float, float, float, float], ...]

    # -- constructors -------------------------------------------------------
    @staticmethod
    def power(
        sigma: float, r_min: float = 0.0, r_max: float = math.inf, *, amplitude: float = 1.0
    ) -> "RadialProfile":
        sigma, r_min, r_max = float(sigma), float(r_min), float(r_max)
        amplitude = float(amplitude)
        if not 0.0 <= r_min < r_max:
            raise ValueError("power requires 0 <= r_min < r_max")
        if amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        segs = ((r_min, r_max, amplitude, sigma),) if amplitude > 0.0 else ()
        return RadialProfile(segs)

    @staticmethod
    def tabulated(knots: Sequence[float], values: Sequence[float]) -> "RadialProfile":
        """Log-log interpolation between knots, zero outside the knot range.
        Segments with a zero endpoint value are treated as vanishing; a drop
        between knots too steep for a finite amplitude raises ValueError."""
        kn = np.asarray(knots, dtype=float)
        va = np.asarray(values, dtype=float)
        if kn.ndim != 1 or kn.size < 2 or kn.shape != va.shape:
            raise ValueError("tabulated requires matching knot/value arrays, >= 2 knots")
        if not (np.all(kn > 0.0) and np.all(np.diff(kn) > 0.0)):
            raise ValueError("knots must be strictly increasing and positive")
        if not np.all(va >= 0.0):
            raise ValueError("tabulated values must be nonnegative")
        segs = []
        for i in range(kn.size - 1):
            v0, v1 = va[i], va[i + 1]
            if v0 > 0.0 and v1 > 0.0:
                p = math.log(v1 / v0) / math.log(kn[i + 1] / kn[i])
                segs.append((float(kn[i]), float(kn[i + 1]), float(v0 / kn[i] ** p), float(p)))
        return RadialProfile(tuple(segs))

    # -- basic queries -------------------------------------------------------
    def __post_init__(self) -> None:
        prev_hi = 0.0
        for i, (lo, hi, A, p) in enumerate(self.segments):
            if not (0.0 <= lo < hi and lo >= prev_hi):
                raise ValueError(f"segment {i} on [{lo:g}, {hi:g}): not sorted and disjoint")
            if not (0.0 < A < math.inf and math.isfinite(p)):
                raise ValueError(
                    f"segment {i} on [{lo:g}, {hi:g}) needs a finite positive amplitude "
                    f"and a finite exponent, got A = {A!r}, p = {p!r}"
                )
            prev_hi = hi

    @property
    def is_zero(self) -> bool:
        return not self.segments

    @property
    def is_pure_power(self) -> bool:
        return (
            len(self.segments) == 1
            and self.segments[0][0] == 0.0
            and math.isinf(self.segments[0][1])
        )

    def support(self) -> Tuple[float, float]:
        if not self.segments:
            return (0.0, 0.0)
        return (self.segments[0][0], self.segments[-1][1])

    def breakpoints(self) -> Tuple[float, ...]:
        pts = set()
        for lo, hi, _, _ in self.segments:
            if lo > 0.0:
                pts.add(lo)
            if math.isfinite(hi):
                pts.add(hi)
        return tuple(sorted(pts))

    def origin_exponent(self) -> Optional[float]:
        """Power at r -> 0+, or None when the support is bounded away from 0."""
        if self.segments and self.segments[0][0] == 0.0:
            return self.segments[0][3]
        return None

    def tail_exponent(self) -> Optional[float]:
        """Power at r -> inf, or None when the support is bounded."""
        if self.segments and math.isinf(self.segments[-1][1]):
            return self.segments[-1][3]
        return None

    @cached_property
    def _segment_arrays(self):
        return (
            np.array([s[0] for s in self.segments]),
            np.array([s[1] for s in self.segments]),
            np.array([s[2] for s in self.segments]),
            np.array([s[3] for s in self.segments]),
        )

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        flat = arr.reshape(-1)
        out = np.zeros_like(flat)
        if self.segments:
            los, his, As, ps = self._segment_arrays
            idx = np.searchsorted(los, flat, side="right") - 1
            pos = np.maximum(idx, 0)
            inside = (idx >= 0) & (flat < his[pos])
            hi_last = float(his[-1])
            if math.isfinite(hi_last):
                inside |= (idx == len(self.segments) - 1) & (flat == hi_last)
            ii = pos[inside]
            out[inside] = As[ii] * flat[inside] ** ps[ii]
        out = out.reshape(arr.shape)
        return float(out) if np.isscalar(r) or arr.ndim == 0 else out

    # -- closed-form calculus -------------------------------------------------
    def moment(self, k: float, lo: float = 0.0, hi: float = math.inf) -> float:
        """int_lo^hi f(r) r^k dr, exact per segment."""
        total = 0.0
        for slo, shi, A, p in self.segments:
            a, b = max(lo, slo), min(hi, shi)
            if a < b:
                total += _segment_moment(a, b, A, p, k)
        return total

    def cumulative(self, k: float, r) -> np.ndarray:
        """Vectorized G(r) = int_0^r f(s) s^k ds (raises if divergent at 0)."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(arr)
        for lo, hi, A, p in self.segments:
            mask = arr > lo
            if np.any(mask):
                upper = np.minimum(arr[mask], hi)
                e = p + k
                _check_origin_power(lo, e)
                if e == -1.0:
                    out[mask] += A * np.log(upper / lo)
                else:
                    base = 0.0 if (lo == 0.0 and e + 1.0 > 0.0) else lo ** (e + 1.0)
                    out[mask] += A * (upper ** (e + 1.0) - base) / (e + 1.0)
        return out

    # -- algebra ---------------------------------------------------------------
    def power_q(self, qexp: float) -> "RadialProfile":
        """Pointwise q-th power, exact on segments (q > 0)."""
        qexp = float(qexp)
        if not qexp > 0.0:
            raise ValueError("power_q requires a positive exponent")
        try:
            segs = tuple((lo, hi, A**qexp, p * qexp) for lo, hi, A, p in self.segments)
        except OverflowError as exc:
            raise ValueError(f"power_q({qexp:g}) overflows a segment amplitude") from exc
        return RadialProfile(segs)

    def dilated(self, t: float) -> "RadialProfile":
        """Profile of x -> f(delta_t x), i.e. g(r) = f(t r)."""
        t = float(t)
        if not t > 0.0:
            raise ValueError("dilation factor must be positive")
        try:
            segs = tuple((lo / t, hi / t, A * t**p, p) for lo, hi, A, p in self.segments)
        except OverflowError as exc:
            raise ValueError(f"dilated({t:g}) overflows a segment amplitude") from exc
        return RadialProfile(segs)


def extremizer_profile(
    e: ExponentSet, j: int, truncation: Optional[Tuple[float, float]] = None
) -> RadialProfile:
    """The j-th (1-based) extremizer r^{sigma_j}, optionally truncated."""
    if not 1 <= j <= e.m:
        raise IndexError(f"extremizer index {j} out of range 1..{e.m}")
    return RadialProfile.power(e.sigma_list[j - 1], *(truncation or ()))


# --------------------------------------------------------------------------
# Operator application


def _check_convergence(profiles: Sequence[RadialProfile], gp: GroupParams) -> None:
    """Analytic integrability pre-check shared by both kernels."""
    Q = gp.Q
    m = len(profiles)
    conditions = []
    for j, f in enumerate(profiles):
        p0 = f.origin_exponent()
        if p0 is not None and Q + p0 <= 0.0:
            conditions.append(
                violated(Q_PLUS_SIGMA_J, f"Q+sigma_{j + 1} = {Q + p0:+.6g} is not positive")
            )
    # a cumulative grows like r^(Q+p) at infinity, or tends to a constant
    # when Q+p < 0 or the support is bounded
    growth = []
    for f in profiles:
        pt = f.tail_exponent()
        growth.append(max(Q + pt, 0.0) if pt is not None else 0.0)
    for i, f in enumerate(profiles):
        pt = f.tail_exponent()
        if pt is None:
            continue
        e_i = pt + (Q - 1.0 - m * Q) + (sum(growth) - growth[i])
        if e_i >= -1.0:
            conditions.append(
                violated(
                    SIGMA_NEG,
                    f"joint tail exponent {e_i + 1.0:+.6g} of factor {i + 1} is not negative",
                )
            )
    if conditions:
        raise DivergenceError(
            "operator integral diverges: " + "; ".join(conditions),
            conditions=tuple(conditions),
        )


def log_panels(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights for int g(r) dr between consecutive edges:
    12-point Gauss-Legendre on max(2, ceil(8 * decades)) log-uniform panels
    per interval.  Also returns the interval index of each node."""
    x, w = leggauss(12)
    la = np.log(edges)
    width = np.diff(la)
    counts = np.maximum(2, np.ceil(8.0 * width / math.log(10.0)).astype(int))
    interval = np.repeat(np.arange(counts.size), counts)
    j = np.arange(interval.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # panel bounds as np.linspace(la[k], la[k + 1], counts[k] + 1) rounds
    # them: j * step + start, with the last bound pinned to the end
    step = (width / counts)[interval]
    pa = j * step + la[interval]
    last = j + 1 == counts[interval]
    pb = np.where(last, la[interval + 1], (j + 1) * step + la[interval])
    mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
    r = np.exp(mid[:, None] + half[:, None] * x)
    return r.ravel(), (w * half[:, None] * r).ravel(), np.repeat(interval, x.size)


def _hlp_tail(profiles: Sequence[RadialProfile], b: float, gp: GroupParams) -> float:
    """int_b^inf r^(-mQ-1) prod_j G_j(r) dr for b at or past every breakpoint.

    There G_j = c_j + a_j r^(e_j), e_j = Q + p_j, on an unbounded last
    segment (G_j(b) + A_j log(r/b) when e_j = 0) and G_j(b) otherwise.  Each
    choice of one part per factor is c b^(-s) L!/s^(L+1), with s = mQ minus
    the chosen exponents and L the number of chosen logs; every part carries
    a factor b^(-Q) so the product stays in range.
    """
    Q, m = gp.Q, len(profiles)
    k = Q - 1.0
    bq = b**-Q
    parts = []  # per factor: (value at b times b^-Q, exponent, log power)
    for f in profiles:
        lo, hi, A, p = f.segments[-1]
        e = Q + p
        if math.isfinite(hi):
            parts.append([(f.cumulative(k, b)[0] * bq, 0.0, 0)])
        elif e == 0.0:
            parts.append([(f.cumulative(k, b)[0] * bq, 0.0, 0), (A * bq, 0.0, 1)])
        else:
            c = f.cumulative(k, lo)[0] - A * lo**e / e
            parts.append([(c * bq, 0.0, 0), (A * b**p / e, e, 0)])
    total = 0.0
    for choice in itertools.product(*parts):
        s = m * Q - sum(e for _, e, _ in choice)
        logs = sum(L for _, _, L in choice)
        total += math.prod(v for v, _, _ in choice) * math.factorial(logs) / s ** (logs + 1)
    return total


def _apply_hlp(
    profiles: Sequence[RadialProfile], radii: np.ndarray, gp: GroupParams
) -> np.ndarray:
    """Max kernel at every radius in one pass.

    The regions of the decomposition over the argmax of (t, r_1, ..., r_m)
    sum to omega_Q^m (t^(-mQ) F(t) + int_t^inf r^(-mQ) F'(r) dr), with
    F = prod_j G_j and G_j(r) = int_0^r f_j(s) s^(Q-1) ds.  On convergent
    inputs r^(-mQ) F -> 0, so by parts
    T(t) = mQ omega_Q^m int_t^inf r^(-mQ-1) F(r) dr.  Between edges (the
    radii and the breakpoints above the smallest one) the integrand is
    smooth and takes the log_panels rule; beyond the last edge _hlp_tail is
    exact; a reverse cumulative sum gives every radius.
    """
    Q, m = gp.Q, len(profiles)
    brk = [b for f in profiles for b in f.breakpoints() if b > radii.min()]
    edges = np.array(sorted({*radii.tolist(), *brk}))
    r, w, interval = log_panels(edges)
    rq = r**-Q
    F = np.prod([f.cumulative(Q - 1.0, r) * rq for f in profiles], axis=0) / r
    pieces = np.append(
        np.bincount(interval, w * F, minlength=edges.size - 1),
        _hlp_tail(profiles, float(edges[-1]), gp),
    )
    above = np.cumsum(pieces[::-1])[::-1]
    return m * Q * gp.omega_Q**m * above[np.searchsorted(edges, radii)]


def _compact(profiles: Sequence[RadialProfile]) -> bool:
    """Every support is bounded and bounded away from 0."""
    return all(f.support()[0] > 0.0 and math.isfinite(f.support()[1]) for f in profiles)


def _axis_rule(f: RadialProfile, gp: GroupParams) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed nodes/weights for int f(r) r^(Q-1) h(r) dr over the bounded
    support of f: the log_panels rule between breakpoints."""
    if not _compact([f]):
        raise ValueError("axis rule requires bounded support away from 0")
    lo, hi = f.support()
    r, w, _ = log_panels(np.array(sorted({lo, hi, *f.breakpoints()})))
    return r, w * f(r) * r ** (gp.Q - 1.0)


def _apply_hilbert_bounded(
    profiles: Sequence[RadialProfile],
    radii: np.ndarray,
    gp: GroupParams,
) -> np.ndarray:
    """Sum kernel over bounded supports, vectorized over output radii.

    a^(-m) = Gamma(m)^(-1) int lam^(m-1) e^(-lam a) dlam splits the kernel,
    u_j = r_j^Q on the _axis_rule nodes: T(t) = omega_Q^m h/Gamma(m) sum_k
    e^(-lam_k t^Q) prod_j lam_k sum_i w_ji e^(-lam_k u_ji), a trapezoid rule
    in log lam (step h) over [-ln a_max - 40/m, -ln a_min + 4].  Its error
    2|Gamma(m - 2 pi i/h)|/Gamma(m) is 5e-17 at m = 4 (Trefethen and
    Weideman, SIAM Rev. 2014).  Each per-axis factor is at most sum w/(e u)
    and every term is positive, so nothing overflows or cancels.
    """
    Q = gp.Q
    m = len(profiles)
    h = 0.2  # h = 1/4 would leave 5.7e-14 at m = 3
    rules = [_axis_rule(f, gp) for f in profiles]
    us = [r**Q for r, _ in rules]
    tq = radii**Q
    a_min = tq.min() + sum(u.min() for u in us)
    a_max = tq.max() + sum(u.max() for u in us)
    lo = -math.log(a_max) - 40.0 / m
    lam = np.exp(lo + h * np.arange(math.ceil((4.0 - math.log(a_min) - lo) / h) + 1))
    factor = np.full(lam.size, h / math.gamma(m))
    for (_, w), u in zip(rules, us):
        factor *= lam * (np.exp(-np.outer(lam, u)) @ w)
    return gp.omega_Q**m * (np.exp(-np.outer(tq, lam)) @ factor)


def apply_radii(
    kind,
    profiles: Sequence[RadialProfile],
    radii: Sequence[float],
    gp: GroupParams,
    spec: Optional[QuadratureSpec] = None,
) -> np.ndarray:
    """The m-linear operator at every output radius |x|_h in radii.

    The output is radial because both kernels depend only on norms.  The
    max kernel integrates the product of the closed-form cumulatives by
    parts over all radii at once (Gauss-Legendre between edges, an exact
    tail).  The sum kernel is prod(A_j) B_m t^sigma on pure powers and,
    on supports bounded away from 0 and infinity, the Laplace contraction:
    one exponential sum per factor on its own radial rule, combined over a
    trapezoid rule in log lambda; other sum-kernel inputs raise ValueError.
    Divergent inputs raise DivergenceError.  spec is not used.  This is the
    one operator entry point; the value at a single radius t is
    apply_radii(kind, profiles, [t], gp)[0].
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    rr = np.asarray(radii, dtype=float)
    if not np.all(rr > 0.0):
        raise ValueError("radii must be positive")
    profiles = list(profiles)
    if any(f.is_zero for f in profiles):
        return np.zeros(rr.size)
    _check_convergence(profiles, gp)
    if rr.size == 0:
        return rr
    if kind == "hlp":
        return _apply_hlp(profiles, rr, gp)
    if all(f.is_pure_power for f in profiles):
        # dilation and the Gamma-product identity: T(t) = prod(A_j) B_m t^sigma
        _, _, amps, powers = zip(*(f.segments[0] for f in profiles))
        e = ExponentSet(powers, math.fsum(powers))
        return math.prod(amps) * hilbert_closed_form(e, gp).value * rr**e.sigma
    if _compact(profiles):
        return _apply_hilbert_bounded(profiles, rr, gp)
    raise ValueError(
        "hilbert apply_radii supports pure-power profiles or profiles with bounded "
        "support away from 0 (mixes are ambiguous to resolve accurately); "
        "truncate the unbounded profiles"
    )
