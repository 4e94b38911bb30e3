"""
Sharp constants: closed forms against integration oracles
=========================================================

The package computes the sharp operator norms of the m-linear
Hardy-Littlewood-Polya and Hilbert operators on weighted Morrey spaces
over the Heisenberg group in two independent ways: a closed form (a
rational expression for the max kernel, a Gamma product for the sum
kernel) and a numerical oracle that integrates the defining kernel
directly.  This demo reconciles the two on the classical anchor line
and on a few random admissible parameter sets.
"""

import numpy as np

from hlp_sharp.constants import (
    beta_recursion_Im,
    classical_anchors,
    hilbert_closed_form,
    hlp_closed_form,
)
from hlp_sharp.hgroup import GroupParams
from hlp_sharp.params import ExponentSet, ParamSet, derive_exponents, validate
from hlp_sharp.quad import (
    DivergenceError,
    QuadratureSpec,
    hilbert_constant_oracle,
    hlp_constant_oracle,
)

gp = GroupParams(n=1)
spec = QuadratureSpec()

# ---------------------------------------------------------------------------
# The anchor line: one factor, no weights.  The closed forms collapse to
# Omega_Q * q^2/(q-1) (max kernel) and Omega_Q * pi/sin(pi/q) (sum kernel).
# ---------------------------------------------------------------------------
print("anchor line on H^1 (Q = 4)")
print(f"{'q':>5} {'A_1 closed':>14} {'A_1 oracle':>14} {'B_1 closed':>14} {'B_1 oracle':>14}")
for q in (1.5, 2.0, 3.0, 5.0):
    e = ExponentSet(sigma_list=(-gp.Q / q,), sigma=-gp.Q / q)
    a_closed = hlp_closed_form(e, gp).value
    b_closed = hilbert_closed_form(e, gp).value
    a_oracle = hlp_constant_oracle(e, gp, spec)
    b_oracle = hilbert_constant_oracle(e, gp, spec)
    anchor_a, anchor_b = classical_anchors(q)
    assert abs(a_closed - gp.Omega_Q * anchor_a) < 1e-10 * a_closed
    assert abs(b_closed - gp.Omega_Q * anchor_b) < 1e-10 * b_closed
    print(f"{q:5.1f} {a_closed:14.8f} {a_oracle:14.8f} {b_closed:14.8f} {b_oracle:14.8f}")

# ---------------------------------------------------------------------------
# A weighted bilinear example.  The sum-kernel constant also satisfies a
# nested Beta recursion, which we unroll as a cross-check.
# ---------------------------------------------------------------------------
p = ParamSet(
    m=2, n=1, q=2.0, q_list=(4.0, 4.0),
    lam=-0.25, lam_list=(-0.125, -0.125),
    gamma_list=(0.0, 0.0), alpha=0.0,
)
assert validate(p).ok
e = derive_exponents(p)
print("\nbilinear example: sigma_j =", e.sigma_list, " sigma =", e.sigma)
print(f"  A_2 closed  {hlp_closed_form(e, gp).value:.10f}")
print(f"  A_2 oracle  {hlp_constant_oracle(e, gp, spec):.10f}")
print(f"  B_2 closed  {hilbert_closed_form(e, gp).value:.10f}")
print(f"  B_2 oracle  {hilbert_constant_oracle(e, gp, spec):.10f}")
offsets = [s / gp.Q for s in e.sigma_list]
print(f"  B_2 via Beta recursion  {gp.Omega_Q**2 * beta_recursion_Im(offsets, 2.0):.10f}")

# ---------------------------------------------------------------------------
# Random admissible sets: the oracle must agree with the closed form
# everywhere in the admissible region, not just at nice points.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(5)
print("\nrandom admissible draws (relative disagreement closed vs oracle)")
for _ in range(4):
    q = float(rng.uniform(1.3, 4.0))
    lam = -float(rng.uniform(0.2, 0.9)) / q
    p = ParamSet(
        m=2, n=1, q=q, q_list=(2 * q, 2 * q), lam=lam,
        lam_list=(lam / 2, lam / 2),
        gamma_list=tuple(rng.uniform(-1.0, 1.0, size=2)), alpha=float(rng.uniform(-1, 1)),
    )
    if not validate(p).ok:
        continue
    e = derive_exponents(p)
    closed = hlp_closed_form(e, gp).value
    oracle = hlp_constant_oracle(e, gp, spec)
    print(f"  q={q:5.3f} lambda={lam:+.3f}  A_2={closed:12.6f}  rel={abs(closed-oracle)/closed:.2e}")

# ---------------------------------------------------------------------------
# Outside the admissible region the defining integrals diverge, and the
# oracle refuses to produce a number rather than returning garbage.
# ---------------------------------------------------------------------------
bad = ExponentSet(sigma_list=(0.5, -0.5), sigma=0.0)
try:
    hlp_constant_oracle(bad, gp, spec)
except DivergenceError as exc:
    print("\ninadmissible input correctly rejected:")
    for cond in exc.conditions:
        print("  -", cond)
