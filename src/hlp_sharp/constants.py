"""Closed-form sharp constants A_m and B_m, the Beta recursion for I_m,
and the classical one-dimensional anchors.

Sign convention (recorded in every SharpConstant.convention_note): the
denominator of A_m uses the positive quantities (-sigma) and (Q + sigma_i),
and B_m uses Gamma(1 + sigma_i/Q) and Gamma(-sigma/Q), whose arguments are
positive exactly on the admissible region.  Equivalent-looking bracket forms
with the opposite signs are identically inadmissible; the quadrature oracles
certify the convention implemented here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from .hgroup import GroupParams
from .params import DivergenceError, ExponentSet, ParamSet, derive_exponents, require_admissible
from .quad import QuadratureSpec, hilbert_constant_oracle, hlp_constant_oracle
from .report import VerificationReport, compare

__all__ = [
    "KINDS",
    "SharpConstant",
    "hlp_closed_form",
    "hilbert_closed_form",
    "beta_recursion_Im",
    "classical_anchors",
    "reconcile",
]

_HLP_NOTE = (
    "A_m = m*Q*omega_Q^m / ((-sigma) * prod(Q + sigma_i)); "
    "convention: (-sigma) > 0 and (Q + sigma_i) > 0 on the admissible region"
)
_HILBERT_NOTE = (
    "B_m = Omega_Q^m * prod Gamma(1 + sigma_i/Q) * Gamma(-sigma/Q) / Gamma(m); "
    "convention: Gamma arguments 1 + sigma_i/Q and -sigma/Q are positive on "
    "the admissible region"
)


@dataclass(frozen=True)
class SharpConstant:
    """A sharp operator-norm constant carrying its sign-convention note."""

    kind: str  # a key of KINDS
    value: float
    convention_note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown constant kind {self.kind!r}")
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError("sharp constant must be positive and finite")


def hlp_closed_form(e: ExponentSet, gp: GroupParams) -> SharpConstant:
    """A_m = m*Q*omega_Q^m / ((-sigma) * prod(Q + sigma_i))."""
    require_admissible(e, gp.Q)
    m = e.m
    # Sorting the factors makes the product bitwise permutation-invariant.
    denom = -e.sigma
    for s_i in sorted(e.sigma_list):
        denom *= gp.Q + s_i
    try:
        value = m * gp.Q * gp.omega_Q**m / denom
    except OverflowError as exc:
        raise ValueError(f"hlp_closed_form overflows at m = {m} (omega_Q^m)") from exc
    return SharpConstant(kind="hlp", value=value, convention_note=_HLP_NOTE)


def hilbert_closed_form(e: ExponentSet, gp: GroupParams) -> SharpConstant:
    """B_m = Omega_Q^m * prod Gamma(1 + sigma_i/Q) * Gamma(-sigma/Q) / Gamma(m).

    Evaluated in log-Gamma space so intermediate Gamma values cannot
    overflow; m >= 170 is rejected outright (Gamma(m) overflow).
    """
    require_admissible(e, gp.Q)
    m = e.m
    if m >= 170:
        raise ValueError("hilbert_closed_form supports m < 170 (Gamma overflow)")
    log_value = m * math.log(gp.Omega_Q)
    for s_i in sorted(e.sigma_list):
        log_value += math.lgamma(1.0 + s_i / gp.Q)
    log_value += math.lgamma(-e.sigma / gp.Q)
    log_value -= math.lgamma(float(m))
    return SharpConstant(
        kind="hilbert", value=math.exp(log_value), convention_note=_HILBERT_NOTE
    )


# Each constant kind: its closed form and the quadrature oracle certifying it.
KINDS = {
    "hlp": (hlp_closed_form, hlp_constant_oracle),
    "hilbert": (hilbert_closed_form, hilbert_constant_oracle),
}


def beta_recursion_Im(offsets: Sequence[float], outer_power: float, scale: float = 1.0) -> float:
    """Evaluate I_m(a_1..a_m; s), a_j = 1 + d_j/scale, peeling one Beta per step.

    I_m(a_1..a_m; s) = B(a_m, s - a_m) * I_{m-1}(a_1..a_{m-1}; s - a_m) with
    I_0 = 1, equal to prod Gamma(a_i) * Gamma(s - sum a_i) / Gamma(s).  Taking
    the offsets d_j (sigma_j with scale Q for B_m) keeps the outer power as
    k + e_k with k factors left, where e_k = (s - m) - (d_{k+1} + ... +
    d_m)/scale is one math.fsum of the peeled offsets divided by scale once,
    so no rounding accumulates from step to step and, for s = m, the last
    argument -sum d_j/scale is the same double as -sigma/Q in the closed form.
    Computed in log space; every peeled Beta must have positive arguments.
    """
    d = [float(x) for x in offsets]
    scale = float(scale)
    e0 = (float(outer_power) - len(d)) * scale
    log_value = 0.0
    for k in range(len(d), 0, -1):
        a = 1.0 + d[k - 1] / scale
        s = k + math.fsum([e0, *(-x for x in d[k:])]) / scale
        rest = (k - 1) + math.fsum([e0, *(-x for x in d[k - 1 :])]) / scale
        if a <= 0.0 or rest <= 0.0:
            raise ValueError(f"nonpositive Beta argument in recursion: B({a}, {rest})")
        log_value += math.lgamma(a) + math.lgamma(rest) - math.lgamma(s)
    return math.exp(log_value)


def classical_anchors(q: float) -> Tuple[float, float]:
    """One-dimensional anchor values (q^2/(q-1), pi/sin(pi/q)) for q > 1."""
    q = float(q)
    if not q > 1.0:
        raise ValueError("classical anchors require q > 1")
    return q * q / (q - 1.0), math.pi / math.sin(math.pi / q)


def reconcile(
    p: ParamSet,
    kind: str,
    gp: GroupParams,
    spec: QuadratureSpec,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Compare the closed-form constant against its quadrature oracle.

    An admissible set whose oracle integral cannot be certified (so near
    the admissibility boundary that the 1-D engine's extrapolated
    remainder fails its rounding bound) yields a failed record with a NaN
    oracle and the engine's message as its note.
    """
    e = derive_exponents(p)
    start = time.perf_counter()
    if kind not in KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    closed_form, oracle_fn = KINDS[kind]
    const = closed_form(e, gp)
    note = const.convention_note
    try:
        oracle = oracle_fn(e, gp, spec)
    except DivergenceError as exc:
        oracle, note = math.nan, f"oracle could not certify: {exc}"
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))
    label = f"{kind}-constant m={e.m} n={gp.n}"
    return compare(
        label,
        const.value,
        oracle,
        tolerance,
        convention_note=note,
        runtime_ms=runtime_ms,
    )
