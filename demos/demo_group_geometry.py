"""
Heisenberg group geometry and the dilation law of the Morrey norm
=================================================================

Everything in the package lives on the Heisenberg group H^n = R^{2n+1}
with its twisted product, anisotropic dilations and gauge norm.  This
demo exercises the basic geometry (group law, homogeneity, ball
volumes) and then checks the property that drives every norm
computation: dilating a function by t scales its weighted Morrey norm
by exactly t^sigma_space.
"""

import numpy as np

from hlp_sharp.hgroup import (
    GroupParams,
    HPoint,
    dilate,
    group_inv,
    group_mul,
    hnorm,
    identity,
)
from hlp_sharp.morrey import BallGrid, MorreySpaceSpec, morrey_norm, verify_dilation
from hlp_sharp.operators import RadialProfile
from hlp_sharp.quad import MCSpec, mc_ball_integral

# ---------------------------------------------------------------------------
# The group law twists the vertical coordinate: points that commute in
# R^3 do not commute here.
# ---------------------------------------------------------------------------
x = HPoint((1.0, 0.0, 0.0))
y = HPoint((0.0, 1.0, 0.0))
print("x o y =", group_mul(x, y).coords)
print("y o x =", group_mul(y, x).coords)
print("x o x^{-1} =", group_mul(x, group_inv(x)).coords)

# the gauge norm is homogeneous of degree one under the dilations,
# which stretch horizontal coordinates by r and the vertical one by r^2
z = HPoint((0.3, -1.2, 0.7))
for r in (0.5, 2.0, 10.0):
    print(f"|delta_{r:>4} z| = {hnorm(dilate(r, z)):.12f}   r|z| = {r * hnorm(z):.12f}")

# ---------------------------------------------------------------------------
# Gauge balls have volume Omega_Q r^Q with Q = 2n + 2 the homogeneous
# dimension.  A plain Monte Carlo integral over the ball recovers it.
# ---------------------------------------------------------------------------
print("\nball volumes (Monte Carlo vs Omega_Q r^Q)")
for n in (1, 2):
    gp = GroupParams(n=n)
    mc = MCSpec(samples=200_000, seed=3, shards=8)
    for r in (0.5, 1.0, 2.0):
        est, se = mc_ball_integral(lambda pts: np.ones(len(pts)), identity(n), r, gp, mc)
        exact = gp.Omega_Q * r**gp.Q
        print(f"  n={n} r={r:3.1f}  mc={est:10.6f}  exact={exact:10.6f}  z={(est - exact) / se:+5.2f}")

# ---------------------------------------------------------------------------
# The Morrey cells of a radial profile are exact and scale-covariant:
# origin cells are closed-form moments and off-center cells ball rules
# whose nodes dilate with the ball, so the dilation law holds cell by cell
# to rounding.
# ---------------------------------------------------------------------------
gp = GroupParams(n=1)
space = MorreySpaceSpec(q=2.5, lam=-0.3, alpha=1.2, gamma_w=-0.8)
grid = BallGrid(
    center_radii=(0.0, 1.0),
    center_directions=(HPoint((1.0, 0.0, 0.0)), HPoint((0.0, 0.0, 1.0))),
    radii=(0.5, 2.0, 8.0),
)
f = RadialProfile.power(-1.1)
seed = 9  # echoed in the records; no cell draws a random number

norm = morrey_norm(f, space, grid, gp)
print(f"\n||f||_Morrey (grid lower bound) = {norm.value:.8f}")
print(f"attained at center radius {norm.argmax_center_radius}, R = {norm.argmax_R}")

print("\ndilation covariance, cell by cell")
factors = (0.5, 2.0, 10.0)
for t, rep in zip(factors, verify_dilation(f, factors, space, grid, gp, seed)):
    print(f"  t={t:>4}: max cell deviation {rep.rel_err:.3e}  passed={rep.passed}")
