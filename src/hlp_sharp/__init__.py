"""Numerical verification toolkit for the sharp bounds of the m-linear
Hardy-Littlewood-Polya and Hilbert operators on power-weighted Morrey
spaces over the Heisenberg group H^n.

The package splits into layers:

- hgroup: the group H^n = R^(2n+1) (law, dilations, gauge norm, polar
  geometry, Q = 2n+2, the unit-ball volume Omega_Q and sphere factor
  omega_Q = Q * Omega_Q).
- params: the exponent bookkeeping (ParamSet), derived scaling exponents
  sigma_j / sigma, admissibility validation, and DivergenceError.
- quad: deterministic 1-D quadrature, the two independent constant oracles,
  and seeded Monte Carlo ball integration.
- constants: closed forms of the sharp constants (log-Gamma from
  math.lgamma) and their reconciliation against the oracles.
- operators: radial profiles, the operators applied to them, extremizers,
  and radialization.
- morrey: weighted Morrey norms over ball grids, the dilation law check,
  and truncated-extremizer sharpness ratios.
- report / cli: flat verification records, JSON-lines/CSV plumbing, and the
  `hlp-sharp` command-line front end.
"""

from .hgroup import (
    GroupParams,
    HPoint,
    dilate,
    group_inv,
    group_mul,
    hdist,
    hnorm,
    identity,
)
from .params import (
    DivergenceError,
    ExponentSet,
    ParamSet,
    ValidationResult,
    admissibility_violations,
    derive_exponents,
    require_admissible,
    validate,
)
from .quad import (
    MCSpec,
    QuadratureSpec,
    SamplingError,
    derive_seed,
    hilbert_constant_oracle,
    hlp_constant_oracle,
    integrate_curve,
    keyed_rng,
    mc_ball_integral,
    polar_directions,
)
from .constants import (
    SharpConstant,
    beta_recursion_Im,
    classical_anchors,
    hilbert_closed_form,
    hlp_closed_form,
    reconcile,
)
from .operators import (
    RadialProfile,
    apply,
    apply_radii,
    extremizer_profile,
    radialize,
)
from .morrey import (
    BallGrid,
    MorreyEstimate,
    MorreySpaceSpec,
    default_grid,
    morrey_norm,
    morrey_norm_mc,
    sharpness_ratio,
    verify_dilation,
)
from .report import VerificationReport, compare, to_json_line, write_reports
from .cli import RunConfig, main, run

__version__ = "0.1.0"

__all__ = [
    "GroupParams", "HPoint", "identity", "group_mul", "group_inv",
    "dilate", "hnorm", "hdist",
    "ParamSet", "ExponentSet", "ValidationResult", "derive_exponents",
    "admissibility_violations", "require_admissible", "validate", "DivergenceError",
    "QuadratureSpec", "MCSpec", "SamplingError",
    "derive_seed", "keyed_rng", "integrate_curve",
    "hlp_constant_oracle", "hilbert_constant_oracle", "mc_ball_integral",
    "polar_directions",
    "SharpConstant", "hlp_closed_form", "hilbert_closed_form",
    "beta_recursion_Im", "classical_anchors", "reconcile",
    "RadialProfile", "apply", "apply_radii",
    "extremizer_profile", "radialize",
    "MorreySpaceSpec", "BallGrid", "MorreyEstimate", "default_grid",
    "morrey_norm", "morrey_norm_mc", "verify_dilation", "sharpness_ratio",
    "VerificationReport", "compare", "to_json_line", "write_reports",
    "RunConfig", "run", "main",
    "__version__",
]
