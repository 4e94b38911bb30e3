"""Parameter bookkeeping and exponent algebra.

A ParamSet carries every exponent of the m-linear setting: the target pair
(q, lambda), the factor exponents (q_j, lambda_j, gamma_j) and the weight
exponent alpha.  From these the scaling exponents

    sigma_j = Q*lambda_j - gamma_j/q + alpha*(lambda_j + 1/q_j)
    sigma   = Q*lambda   - gamma/q   + alpha*(lambda   + 1/q)

are derived (Q = 2n+2, gamma = sum gamma_j).  Under the scaling balance
1/q = sum 1/q_j and lambda = sum lambda_j, which validate() checks, sigma
is sum sigma_j, and it is computed as that sum.  Admissibility of the sharp
constants is convergence of the defining integrals: sigma < 0 and
Q + sigma_j > 0 for every j.  This module owns that decision: every violated
condition is a "<token> violated: <detail>" string from violated(), and
every divergence a DivergenceError carrying such strings as its conditions
(quad re-exports the class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


_COUPLING_TOL = 1e-12

SIGMA_NEG = "sigma<0"
Q_PLUS_SIGMA_J = "Q+sigma_j>0"


class DivergenceError(ValueError, ArithmeticError):
    """The requested integral does not converge (or cannot be certified);
    conditions names the violated conditions."""

    def __init__(self, message: str, conditions: tuple = ()):
        super().__init__(message)
        self.conditions = tuple(conditions)


def violated(token: str, detail: str) -> str:
    """The named form of a violated condition: "<token> violated: <detail>"."""
    return f"{token} violated: {detail}"


@dataclass(frozen=True)
class ParamSet:
    """Full parameter pack for the m-linear operators on H^n."""

    m: int
    n: int
    q: float
    q_list: tuple
    lam: float
    lam_list: tuple
    gamma_list: tuple
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q_list", tuple(float(v) for v in self.q_list))
        object.__setattr__(self, "lam_list", tuple(float(v) for v in self.lam_list))
        object.__setattr__(self, "gamma_list", tuple(float(v) for v in self.gamma_list))

    @property
    def Q(self) -> int:
        return 2 * self.n + 2

    @property
    def gamma(self) -> float:
        return sum(self.gamma_list)

    def to_dict(self) -> dict:
        """Plain-JSON form, as reports record it."""
        return {
            "m": self.m,
            "n": self.n,
            "q": self.q,
            "q_list": list(self.q_list),
            "lambda": self.lam,
            "lambda_list": list(self.lam_list),
            "gamma_list": list(self.gamma_list),
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class ExponentSet:
    """Derived scaling exponents sigma_j and sigma."""

    sigma_list: tuple
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_list", tuple(float(v) for v in self.sigma_list))

    @property
    def m(self) -> int:
        return len(self.sigma_list)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate(): ok iff the violation list is empty."""

    ok: bool
    violations: tuple = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def derive_exponents(p: ParamSet) -> ExponentSet:
    """Compute sigma_j and sigma = fsum(sigma_j) from a ParamSet (Q = 2n+2)."""
    Q = p.Q
    sig = tuple(
        Q * lj - gj / p.q + p.alpha * (lj + 1.0 / qj)
        for qj, lj, gj in zip(p.q_list, p.lam_list, p.gamma_list)
    )
    return ExponentSet(sigma_list=sig, sigma=math.fsum(sig))


def admissibility_violations(e: ExponentSet, Q: float) -> list:
    """Convergence conditions for the constant integrals, as violation strings."""
    out = []
    if not e.sigma < 0.0:
        out.append(violated(SIGMA_NEG, f"sigma = {e.sigma:.6g} is not negative"))
    for j, sj in enumerate(e.sigma_list, start=1):
        if not Q + sj > 0.0:
            out.append(
                violated(Q_PLUS_SIGMA_J, f"Q + sigma_{j} = {Q + sj:.6g} is not positive")
            )
    return out


def require_admissible(e: ExponentSet, Q: float) -> None:
    """Raise DivergenceError naming every violated convergence condition."""
    bad = admissibility_violations(e, Q)
    if bad:
        raise DivergenceError("inadmissible exponents: " + "; ".join(bad), conditions=bad)


def factor_weight_violations(p: ParamSet, factors) -> list:
    """Violations of q_j*gamma_j/q > -Q, the content weight exponent of the
    factor spaces j in factors (1-based)."""
    out = []
    for j in factors:
        gw = p.q_list[j - 1] * p.gamma_list[j - 1] / p.q
        if not gw > -p.Q:
            out.append(violated("q_j*gamma_j/q>-Q", f"q_{j}*gamma_{j}/q = {gw:.6g}, -Q = {-p.Q}"))
    return out


def validate(p: ParamSet, strict_sharpness: bool = False) -> ValidationResult:
    """Check all ParamSet invariants, the scaling balance 1/q = sum 1/q_j and
    lambda = sum lambda_j, and admissibility of the derived exponents.

    With strict_sharpness, additionally require lambda_j strictly inside
    (-1/q_j, 0), the coupling q*lambda = q_j*lambda_j, and content weight
    exponents above -Q: q_j*gamma_j/q for each factor, sum(gamma_j) for the
    target.  Returns a structured list of violated conditions; never raises.
    """
    v = []
    if not (isinstance(p.m, int) and p.m >= 1):
        v.append(violated("m>=1", f"m = {p.m}"))
    if not (isinstance(p.n, int) and p.n >= 1):
        v.append(violated("n>=1", f"n = {p.n}"))
    if not (len(p.q_list) == len(p.lam_list) == len(p.gamma_list) == p.m):
        v.append(
            violated("list lengths", "q_list, lambda_list, gamma_list must all have m entries")
        )
        return ValidationResult(ok=False, violations=tuple(v))
    if not (math.isfinite(p.q) and p.q >= 1.0):
        v.append(violated("q>=1", f"q = {p.q}"))
    for j, qj in enumerate(p.q_list, start=1):
        if not (math.isfinite(qj) and qj > 1.0):
            v.append(violated("q_j>1", f"q_{j} = {qj}"))
    if v:
        return ValidationResult(ok=False, violations=tuple(v))

    inv_sum = sum(1.0 / qj for qj in p.q_list)
    if abs(1.0 / p.q - inv_sum) > _COUPLING_TOL:
        v.append(violated("1/q=sum(1/q_j)", f"1/q = {1.0 / p.q:.12g}, sum = {inv_sum:.12g}"))
    lam_sum = math.fsum(p.lam_list)
    if not abs(p.lam - lam_sum) <= _COUPLING_TOL:
        v.append(
            violated("lambda=sum(lambda_j)", f"lambda = {p.lam:.12g}, sum = {lam_sum:.12g}")
        )
    if not (-1.0 / p.q <= p.lam < 0.0):
        v.append(violated("lambda in [-1/q,0)", f"lambda = {p.lam}, -1/q = {-1.0 / p.q}"))
    for j, (qj, lj) in enumerate(zip(p.q_list, p.lam_list), start=1):
        if not (-1.0 / qj <= lj < 0.0):
            v.append(
                violated("lambda_j in [-1/q_j,0)", f"lambda_{j} = {lj}, -1/q_{j} = {-1.0 / qj}")
            )
    Q = p.Q
    if not p.alpha > -Q:
        v.append(violated("alpha>-Q", f"alpha = {p.alpha}, -Q = {-Q}"))

    e = derive_exponents(p)
    v.extend(admissibility_violations(e, Q))

    if strict_sharpness:
        for j, (qj, lj) in enumerate(zip(p.q_list, p.lam_list), start=1):
            if not (-1.0 / qj < lj < 0.0):
                v.append(
                    f"lambda_j in (-1/q_j,0) violated (strict): lambda_{j} = {lj}"
                )
            if abs(p.q * p.lam - qj * lj) > _COUPLING_TOL:
                v.append(
                    violated(
                        "q*lambda=q_j*lambda_j",
                        f"q*lambda = {p.q * p.lam:.12g}, q_{j}*lambda_{j} = {qj * lj:.12g}",
                    )
                )
        v.extend(factor_weight_violations(p, range(1, p.m + 1)))
        if not p.gamma > -Q:
            v.append(violated("sum(gamma_j)>-Q", f"sum(gamma_j) = {p.gamma:.6g}, -Q = {-Q}"))

    return ValidationResult(ok=not v, violations=tuple(v))
