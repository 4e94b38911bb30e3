"""Heisenberg group geometry.

Points of H^n live in R^(2n+1): coordinates x_1..x_2n are horizontal, the
last coordinate is vertical.  The module provides the group law, inverses,
anisotropic dilations, the homogeneous (gauge) norm and distance, and the
unit-ball volume constants that normalize every radial integral downstream.

Everything here is a pure function; the batched helpers (taking (N, 2n+1)
arrays) check group-check's axioms on its 10,000 triples, a block at a
time, and carry quad's Monte Carlo sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HPoint:
    """A point of H^n stored as a flat coordinate vector of length 2n+1."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3 or c.size % 2 == 0:
            raise ValueError(
                f"HPoint needs a flat vector of odd length 2n+1 >= 3, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("HPoint coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return (self.coords.size - 1) // 2


@dataclass(frozen=True)
class GroupParams:
    """Dimension bookkeeping for H^n: Q = 2n+2 and the ball-volume constants.

    Omega_Q is the Lebesgue volume of the unit gauge ball {|x|_h < 1} and
    omega_Q = Q * Omega_Q is the surface constant of the polar decomposition
    int_{H^n} F dx = omega_Q * int_0^inf F(r) r^(Q-1) dr for radial F.
    """

    n: int
    Q: int = field(init=False)
    Omega_Q: float = field(init=False)
    omega_Q: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"GroupParams requires integer n >= 1, got {self.n}")
        object.__setattr__(self, "Q", 2 * self.n + 2)
        object.__setattr__(self, "Omega_Q", _unit_ball_volume(self.n))
        object.__setattr__(self, "omega_Q", self.Q * self.Omega_Q)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


def _unit_ball_volume(n: int) -> float:
    """Lebesgue volume of {x in R^(2n+1) : |x|_h < 1}.

    Closed form pi^(n+1/2) Gamma(n/2) / ((n+1) Gamma(n) Gamma((n+1)/2)),
    which simplifies to pi^(n+1) / (2^(n-1) (n+1) Gamma((n+1)/2)^2); at n=1
    this is pi^2/2.  group-check certifies the value against
    quad.gauge_ball_volume, a slab rule that shares none of these Gamma
    factors.
    """
    return (
        math.pi ** (n + 0.5)
        * math.gamma(n / 2.0)
        / ((n + 1) * math.gamma(float(n)) * math.gamma((n + 1) / 2.0))
    )


def identity(n: int) -> HPoint:
    """The group identity, the origin of R^(2n+1)."""
    return HPoint(np.zeros(2 * n + 1))


# ---------------------------------------------------------------------------
# Batched array kernels.  X, Y are (..., 2n+1) arrays; broadcasting applies.
# ---------------------------------------------------------------------------

# Doubles in one block of a blocked computation: 64 KiB, half glibc's mmap
# threshold, so no block comes back as fresh pages.  Group-check's axioms,
# the Hilbert contraction's rows (at least 8 of them) and the ball rule's
# angle panels run in blocks of this many values.
BLOCK_FLOATS = 8192


def mul_arrays(X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """Group law on coordinate arrays: last coordinate picks up the twist
    2 * sum_j (y_j x_{n+j} - x_j y_{n+j})."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    out = X + Y
    out[..., 2 * n] += 2.0 * (_cross_sum(Y, X, n) - _cross_sum(X, Y, n))
    return out


def _cross_sum(A: np.ndarray, B: np.ndarray, n: int):
    """sum_{j<n} A_j B_{n+j}, summed as numpy's einsum sums up to 7 terms:
    even and odd j in two running sums, then 0 + even + odd (einsum adds
    into a zeroed output, so an all -0.0 sum reads +0.0).  Unlike einsum
    on strided slices, it builds no (..., n) temporary."""
    sums = [A[..., j] * B[..., n + j] for j in range(min(n, 2))]
    for j in range(2, n):
        sums[j % 2] = sums[j % 2] + A[..., j] * B[..., n + j]
    return sum(sums)


# Norms whose fourth powers are normal doubles, with margin.
_NORM_SAFE = (1e-70, 1e70)


def hnorm_arrays(X: np.ndarray, n: int) -> np.ndarray:
    """Gauge norm [(sum_{i<=2n} x_i^2)^2 + x_{2n+1}^2]^(1/4) on arrays.

    Norms outside _NORM_SAFE (including 0) are recomputed on the dilate of
    unit size, so tiny or huge points keep full relative precision instead
    of losing it to subnormal or overflowing fourth powers.
    """
    X = np.asarray(X, dtype=float)
    out = _hnorm_unscaled(X[..., : 2 * n], X[..., 2 * n])
    if out.size and not (_NORM_SAFE[0] < out.min() and out.max() < _NORM_SAFE[1]):
        scale = np.maximum(
            np.max(np.abs(X[..., : 2 * n]), axis=-1), np.sqrt(np.abs(X[..., 2 * n]))
        )
        scale = np.where(scale > 0.0, scale, 1.0)
        out = scale * _hnorm_unscaled(
            X[..., : 2 * n] / scale[..., None], X[..., 2 * n] / scale / scale
        )
    return out


def _hnorm_unscaled(horiz, vert):
    """Gauge norm from the horizontal block and vertical coordinate."""
    with np.errstate(over="ignore", under="ignore"):
        h2 = np.einsum("...i,...i->...", horiz, horiz)
        return np.sqrt(np.sqrt(h2 * h2 + vert * vert))


def dilate_arrays(r, X: np.ndarray, n: int) -> np.ndarray:
    """Anisotropic dilation: r on horizontal coordinates, r^2 on the vertical.

    r may be a scalar or an array broadcastable against X[..., 0].
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    out = X * r[..., None]
    out[..., 2 * n] *= r
    return out


# ---------------------------------------------------------------------------
# Point-level operations.
# ---------------------------------------------------------------------------

def _check_same_dim(x: HPoint, y: HPoint):
    if x.coords.size != y.coords.size:
        raise ValueError(
            f"dimension mismatch: {x.coords.size} vs {y.coords.size} coordinates"
        )


def group_mul(x: HPoint, y: HPoint) -> HPoint:
    """Group product x o y."""
    _check_same_dim(x, y)
    return HPoint(mul_arrays(x.coords, y.coords, x.n))


def group_inv(x: HPoint) -> HPoint:
    """Group inverse, componentwise negation (the twist term cancels)."""
    return HPoint(-x.coords)


def dilate(r: float, x: HPoint) -> HPoint:
    """Dilation delta_r(x) for r > 0."""
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"dilate requires r > 0, got r = {r}")
    return HPoint(dilate_arrays(r, x.coords, x.n))


def hnorm(x: HPoint) -> float:
    """Homogeneous (gauge) norm of x."""
    return float(hnorm_arrays(x.coords, x.n))


def hdist(p: HPoint, q: HPoint) -> float:
    """Left-invariant distance |q^(-1) o p|_h."""
    _check_same_dim(p, q)
    return hnorm(group_mul(group_inv(q), p))
