"""Radial profiles, the m-linear operators P_m (max kernel) and P*_m
(sum kernel), and extremizer profiles.

A profile is nothing but its disjoint power segments A*r^p on [lo, hi),
which makes dilations and cumulative integrals closed-form.  apply_radii
is the one operator entry point.  It takes compact profiles only,
supported in [lo, hi] with 0 < lo < hi < inf, as the truncated
extremizers of the sharpness check are.  It reduces each y_j integral to
a radial one (factor omega_Q r^(Q-1)) and tabulates every output radius
in one pass per kernel.  The max kernel integrates the product of the
cumulatives by parts: Gauss-Legendre panels between edges, and past the
last edge, where every cumulative is constant, a closed-form tail.  The
sum kernel is a Laplace contraction that sums over each variable
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .hgroup import BLOCK_FLOATS, GroupParams
from .params import Q_PLUS_SIGMA_J, DivergenceError, ExponentSet, violated
from .constants import KINDS
from .quad import QuadratureSpec, leggauss

__all__ = [
    "RadialProfile",
    "apply_radii",
    "extremizer_profile",
    "log_panels",
]


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
    def cumulative(self, k: float, r) -> np.ndarray:
        """Vectorized G(r) = int_0^r f(s) s^k ds (raises if divergent at 0)."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(arr)
        for lo, hi, A, p in self.segments:
            mask = arr > lo
            if np.any(mask):
                upper = np.minimum(arr[mask], hi)
                e = p + k
                if lo == 0.0 and e <= -1.0:
                    bad = violated(Q_PLUS_SIGMA_J, f"segment exponent {e:+.6g} <= -1 at 0")
                    raise DivergenceError(
                        f"segment integral diverges at 0: exponent {e:+.6g} <= -1", conditions=(bad,)
                    )
                if e == -1.0:
                    out[mask] += A * np.log(upper / lo)
                else:
                    base = 0.0 if lo == 0.0 else np.float64(lo) ** (e + 1.0)
                    out[mask] += A * (upper ** (e + 1.0) - base) / (e + 1.0)
        return out

    # -- algebra ---------------------------------------------------------------
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


def _apply_hlp(
    profiles: Sequence[RadialProfile], radii: np.ndarray, gp: GroupParams
) -> np.ndarray:
    """Max kernel at every radius in one pass.

    The regions of the decomposition over the argmax of (t, r_1, ..., r_m)
    sum to omega_Q^m (t^(-mQ) F(t) + int_t^inf r^(-mQ) F'(r) dr), with
    F = prod_j G_j and G_j(r) = int_0^r f_j(s) s^(Q-1) ds.  On compact
    supports F is bounded, so r^(-mQ) F -> 0 and by parts
    T(t) = mQ omega_Q^m int_t^inf r^(-mQ-1) F(r) dr.  Between edges (the
    radii and the breakpoints above the smallest one) the integrand is
    smooth and takes the log_panels rule.  Past the last edge b every
    cumulative is constant, so the tail is exactly
    prod_j(G_j(b) b^(-Q)) / (mQ), each factor carrying its b^(-Q) so that
    the product stays in range.  A reverse cumulative sum gives every
    radius.
    """
    Q, m = gp.Q, len(profiles)
    brk = [b for f in profiles for b in f.breakpoints() if b > radii.min()]
    edges = np.array(sorted({*radii.tolist(), *brk}))
    r, w, interval = log_panels(edges)
    rq = r**-Q
    F = np.prod([f.cumulative(Q - 1.0, r) * rq for f in profiles], axis=0) / r
    b = float(edges[-1])
    tail = math.prod(f.cumulative(Q - 1.0, b)[0] * b**-Q for f in profiles) / (m * Q)
    pieces = np.append(np.bincount(interval, w * F, minlength=edges.size - 1), tail)
    above = np.cumsum(pieces[::-1])[::-1]
    return m * Q * gp.omega_Q**m * above[np.searchsorted(edges, radii)]


def _axis_rule(f: RadialProfile, gp: GroupParams) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed nodes/weights for int f(r) r^(Q-1) h(r) dr over the compact
    support of f: the log_panels rule between breakpoints."""
    lo, hi = f.support()
    r, w, _ = log_panels(np.array(sorted({lo, hi, *f.breakpoints()})))
    return r, w * f(r) * r ** (gp.Q - 1.0)


def _apply_hilbert(
    profiles: Sequence[RadialProfile],
    radii: np.ndarray,
    gp: GroupParams,
) -> np.ndarray:
    """Sum kernel at every radius in one pass.

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
        factor *= lam * _exp_contract(lam, u, w)
    return gp.omega_Q**m * _exp_contract(tq, lam, factor)


def _exp_contract(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(-outer(a, b)) @ w, a block of rows at a time: each block has at
    most BLOCK_FLOATS entries, or 8 rows if b is longer than 1,024.

    Blocks are a multiple of 8 rows, so BLAS's gemv groups the rows of each
    block as it groups those of the whole matrix on one thread.  A one-row
    remainder joins the last block, as numpy would pass one row alone to a
    dot product.  So the values are the bits of the unblocked product on
    one BLAS thread.  An unblocked product large enough to run on several
    threads can differ from them by an ulp where the threads' rows meet.
    """
    rows = max(8, BLOCK_FLOATS // b.size // 8 * 8)
    out = np.empty(a.size)
    i = 0
    while i < a.size:
        j = a.size if a.size - i == rows + 1 else i + rows
        out[i:j] = np.exp(-np.outer(a[i:j], b)) @ w
        i = j
    return out


def apply_radii(
    kind,
    profiles: Sequence[RadialProfile],
    radii: Sequence[float],
    gp: GroupParams,
    spec: Optional[QuadratureSpec] = None,
) -> np.ndarray:
    """The m-linear operator at every output radius |x|_h in radii.

    Every profile must be supported in [lo, hi] with 0 < lo < hi < inf;
    any other non-zero profile raises ValueError, so truncate a pure power
    as RadialProfile.power(sigma, lo, hi).  On such supports no integral
    diverges.  The output is radial because both kernels depend only on
    norms.  The max kernel integrates the product of the closed-form
    cumulatives by parts over all radii at once (Gauss-Legendre between
    edges, an exact tail).  The sum kernel is the Laplace contraction: one
    exponential sum per factor on its own radial rule, combined over a
    trapezoid rule in log lambda.  spec is not used.  This is the one
    operator entry point; the value at a single radius t is
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
    for j, f in enumerate(profiles):
        lo, hi = f.support()
        if not (lo > 0.0 and math.isfinite(hi)):
            raise ValueError(
                f"profile {j + 1} is supported in [{lo:g}, {hi:g}]; apply_radii takes "
                "supports in [lo, hi] with 0 < lo < hi < inf: truncate it, e.g. "
                "RadialProfile.power(sigma, lo, hi)"
            )
    if rr.size == 0:
        return rr
    if kind == "hlp":
        return _apply_hlp(profiles, rr, gp)
    return _apply_hilbert(profiles, rr, gp)
