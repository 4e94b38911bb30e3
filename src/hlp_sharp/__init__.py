"""Numerical verification toolkit for the sharp bounds of the m-linear
Hardy-Littlewood-Polya and Hilbert operators on power-weighted Morrey
spaces over the Heisenberg group H^n.

The package splits into layers:

- hgroup: the group H^n = R^(2n+1) (law, dilations, gauge norm, polar
  geometry, Q = 2n+2, the unit-ball volume Omega_Q and sphere factor
  omega_Q = Q * Omega_Q).
- params: the exponent bookkeeping (ParamSet), derived scaling exponents
  sigma_j / sigma, admissibility validation, and DivergenceError.
- quad: deterministic 1-D quadrature, the slab rule for the unit-ball
  volume, the two independent constant oracles, the gauge-ball rule for
  radial integrands, and seeded Monte Carlo ball integration, which no
  command draws from.
- constants: closed forms of the sharp constants (log-Gamma from
  math.lgamma) and their reconciliation against the oracles.
- operators: radial profiles, the operators applied to them, and
  extremizers.
- morrey: weighted Morrey norms over ball grids, the dilation law check,
  and truncated-extremizer sharpness ratios.
- report / cli: flat verification records, JSON-lines/CSV plumbing, and the
  `hlp-sharp` command-line front end.

The package root holds only __version__: import each name from its module,
e.g. `from hlp_sharp.constants import hlp_closed_form`.
"""

__version__ = "0.1.0"
