"""Command-line front end wiring the modules into reproducible runs.

The single entry point `hlp-sharp` executes one named verification command,
writes one JSON-lines report per run (one flat record per verification,
preceded by a self-describing header record echoing every default), and
returns a three-way exit status:

    0   every verification record passed
    1   at least one record failed (reports are still written)
    2   usage or validation error, with the violated condition named

CSV output is reserved for the sharpness convergence table: one row per
`--widths` entry, written from the same records and with the same exit
status.  Its header row is exactly `r_min,r_max,ratio,constant,ratio_over_constant`.

Reports are bit-reproducible for a fixed configuration (including the seed)
apart from the runtime_ms fields: all randomness flows from mc.seed through
named substreams.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import re
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import KINDS, beta_recursion_Im, hilbert_closed_form, reconcile
from .hgroup import GroupParams, dilate_arrays, hnorm_arrays, identity, mul_arrays
from .morrey import (
    BallGrid,
    default_grid,
    morrey_norm,
    power_norm,
    sharpness_ratio,
    source_space,
    verify_dilation,
)
from .operators import extremizer_profile
from .params import (
    DivergenceError, ParamSet, derive_exponents, factor_weight_violations, validate, violated,
)
from .quad import MCSpec, QuadratureSpec, keyed_rng, mc_ball_integral
from .report import VerificationReport, compare, write_reports

__all__ = [
    "RunConfig",
    "UsageError",
    "build_parser",
    "config_from_args",
    "run",
    "main",
    "CSV_HEADER",
    "COMMANDS",
]

CSV_HEADER = ("r_min", "r_max", "ratio", "constant", "ratio_over_constant")

_GROUP_TRIPLES = 10_000
_PURPOSE_GROUP = 29  # keyed_rng key of the group-check samples
_PROPERTY_TOL = 1e-9


class UsageError(ValueError):
    """Invalid configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; built from parsed flags."""

    command: str
    params: ParamSet
    quad: QuadratureSpec
    mc: MCSpec
    grid: BallGrid
    output_path: str
    format: str = "json"
    kind: str = "hlp"
    tolerance: float = 1e-6
    dilation_factors: Tuple[float, ...] = (0.5, 2.0, 10.0)
    truncation: Tuple[float, float] = (1e-2, 1e2)
    widths: Tuple[Tuple[float, float], ...] = ((1e-1, 1e1), (1e-2, 1e2))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="hlp-sharp",
        description="Numerical verification runs for the sharp m-linear "
        "Hardy-Littlewood-Polya and Hilbert operator bounds on Morrey "
        "spaces over the Heisenberg group.",
        allow_abbrev=False,
    )
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--m", type=int, default=1, help="number of factors (default 1)")
    ap.add_argument("--n", type=int, default=1, help="Heisenberg index, Q = 2n+2 (default 1)")
    ap.add_argument("--q", type=float, default=2.0, help="target Lebesgue exponent")
    ap.add_argument("--qj", type=str, default=None, help="comma list of factor exponents q_j (default m*q each)")
    ap.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="target Morrey exponent (default -1/(2q))")
    ap.add_argument("--lambdaj", type=str, default=None,
                    help="comma list of lambda_j (default q*lambda/q_j)")
    ap.add_argument("--gammaj", type=str, default=None,
                    help="comma list of weight exponents gamma_j (default zeros)")
    ap.add_argument("--alpha", type=float, default=0.0, help="ball-weight exponent")
    ap.add_argument("--kind", choices=tuple(KINDS), default="hlp")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100_000, help="samples per group-check ball-volume estimate")
    ap.add_argument("--panels", type=int, default=96, help="quadrature panels per segment")
    ap.add_argument("--out", type=str, default=None,
                    help="report path (default hlp_report.jsonl, or hlp_convergence.csv for csv)")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--tolerance", type=float, default=1e-6,
                    help="pass tolerance for constant reconciliation records")
    ap.add_argument("--t", type=str, default="0.5,2,10",
                    help="comma list of dilation factors for verify-dilation")
    ap.add_argument("--rmin", type=float, default=1e-2, help="truncation lower radius for verify-sharpness")
    ap.add_argument("--rmax", type=float, default=1e2, help="truncation upper radius for verify-sharpness")
    ap.add_argument("--widths", type=str, default="1e-1:1e1,1e-2:1e2",
                    help="comma list of lo:hi truncations for the csv convergence table")
    return ap


# Flags taking comma/colon lists whose values may start with a minus sign;
# argparse would mistake such a value for an option, so it is merged into
# --flag=value form before parsing.
_LIST_FLAGS = ("--qj", "--lambdaj", "--gammaj", "--t", "--widths")
_NUMERIC_LIST = re.compile(r"^-[0-9eE+\-.,:]*$")


def _merge_negative_list_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv) and _NUMERIC_LIST.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _float_list(text: str, flag: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated list of numbers: {text!r}") from exc


def _width_list(text: str) -> Tuple[Tuple[float, float], ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            raise UsageError(f"--widths expects lo:hi pairs, got {tok!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise UsageError(f"--widths expects numeric lo:hi pairs, got {tok!r}") from exc
        out.append((lo, hi))
    return tuple(out)


def _params_from_args(args) -> ParamSet:
    m, q = args.m, args.q
    if not (isinstance(m, int) and m >= 1):
        raise UsageError(violated("m>=1", f"m = {m}"))
    if not (math.isfinite(q) and q > 0.0):
        raise UsageError(violated("q>0", f"q = {q}"))
    q_list = _float_list(args.qj, "--qj") if args.qj else tuple(m * q for _ in range(m))
    lam = args.lam if args.lam is not None else -1.0 / (2.0 * q)
    if args.lambdaj:
        lam_list = _float_list(args.lambdaj, "--lambdaj")
    else:
        lam_list = tuple(q * lam / qj if qj != 0.0 else math.nan for qj in q_list)
    gamma_list = _float_list(args.gammaj, "--gammaj") if args.gammaj else tuple(0.0 for _ in range(m))
    return ParamSet(
        m=m, n=args.n, q=q, q_list=q_list, lam=lam,
        lam_list=lam_list, gamma_list=gamma_list, alpha=args.alpha,
    )


def config_from_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    argv = _merge_negative_list_values(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    p = _params_from_args(args)
    if p.n < 1:
        raise UsageError(violated("n>=1", f"n = {p.n}"))
    if args.format == "csv" and args.command != "verify-sharpness":
        raise UsageError(
            f"format=csv is reserved for the verify-sharpness convergence table, "
            f"not command={args.command}"
        )
    out = args.out
    if out is None:
        out = "hlp_convergence.csv" if args.format == "csv" else "hlp_report.jsonl"
    if args.samples < 1000:
        raise UsageError(violated("samples>=1000", f"samples = {args.samples}"))
    if args.panels < 1:
        raise UsageError(violated("panels>=1", f"panels = {args.panels}"))
    if not args.tolerance > 0.0:
        raise UsageError(violated("tolerance>0", f"tolerance = {args.tolerance}"))
    if not (0.0 < args.rmin < args.rmax):
        raise UsageError(violated("0<rmin<rmax", f"rmin = {args.rmin}, rmax = {args.rmax}"))
    widths = _width_list(args.widths)
    for lo, hi in widths:
        if not (0.0 < lo < hi):
            raise UsageError(violated("0<rmin<rmax", f"--widths entry {lo:g}:{hi:g}"))
    factors = _float_list(args.t, "--t")
    if any(not t > 0.0 for t in factors):
        raise UsageError(f"--t factors must be positive: {args.t!r}")
    return RunConfig(
        command=args.command,
        params=p,
        quad=QuadratureSpec(panels=args.panels),
        mc=MCSpec(samples=args.samples, seed=args.seed),
        grid=default_grid(args.n),
        output_path=out,
        format=args.format,
        kind=args.kind,
        tolerance=args.tolerance,
        dilation_factors=factors,
        truncation=(args.rmin, args.rmax),
        widths=widths,
    )


def _header_record(config: RunConfig) -> dict:
    """Self-describing first record: every default is echoed."""
    g = config.grid
    return {
        "record": "header",
        "command": config.command,
        "format": config.format,
        "kind": config.kind,
        "params": config.params.to_dict(),
        "quad": dict(vars(config.quad)),
        "mc": dict(vars(config.mc)),
        "grid": {
            "center_radii": [float(v) for v in g.center_radii],
            "n_directions": len(g.center_directions),
            "radii_min": float(g.radii[0]),
            "radii_max": float(g.radii[-1]),
            "n_radii": len(g.radii),
        },
        "tolerance": config.tolerance,
        "dilation_factors": list(config.dilation_factors),
        "truncation": list(config.truncation),
        "widths": [list(w) for w in config.widths],
    }


def _validated(p: ParamSet, strict: bool = False, weighted: Sequence[int] = ()) -> None:
    """Raise UsageError naming the violations, with the content weights of
    the factor spaces in weighted (1-based) checked too."""
    bad = [*validate(p, strict_sharpness=strict).violations, *factor_weight_violations(p, weighted)]
    if bad:
        raise UsageError("; ".join(bad))


def _cmd_constant(config: RunConfig) -> List[VerificationReport]:
    _validated(config.params)
    gp = GroupParams(n=config.params.n)
    return [reconcile(config.params, config.kind, gp, config.quad, config.tolerance)]


def _cmd_oracle_compare(config: RunConfig) -> List[VerificationReport]:
    """Reconcile both closed forms against their oracles, then check that the
    nested Beta recursion reproduces the additive-kernel Gamma product."""
    _validated(config.params)
    p = config.params
    gp = GroupParams(n=p.n)
    records = [reconcile(p, kind, gp, config.quad, config.tolerance) for kind in KINDS]
    e = derive_exponents(p)
    t0 = time.perf_counter()
    closed = hilbert_closed_form(e, gp).value
    recursed = gp.Omega_Q**p.m * beta_recursion_Im(e.sigma_list, float(p.m), scale=gp.Q)
    ms = int(round((time.perf_counter() - t0) * 1000))
    records.append(
        compare(
            f"hilbert-recursion-identity m={p.m} n={p.n}",
            closed,
            recursed,
            1e-12,
            convention_note="nested Beta recursion against the Gamma-product form",
            runtime_ms=ms,
        )
    )
    return records


def _cmd_verify_dilation(config: RunConfig) -> List[VerificationReport]:
    _validated(config.params, weighted=(1,))
    p = config.params
    gp = GroupParams(n=p.n)
    e = derive_exponents(p)
    f = extremizer_profile(e, 1)
    space = source_space(p, 1)
    return verify_dilation(f, config.dilation_factors, space, config.grid, gp, config.mc.seed)


def _cmd_verify_sharpness(config: RunConfig) -> List[VerificationReport]:
    """One record per --widths entry for the csv table, else one for
    (--rmin, --rmax)."""
    truncations = config.widths if config.format == "csv" else (config.truncation,)
    return [
        sharpness_ratio(config.kind, config.params, t, config.grid, config.mc.seed)
        for t in truncations
    ]


def _cmd_morrey_norm(config: RunConfig) -> List[VerificationReport]:
    """Estimate the first extremizer's norm in its factor space and compare
    against its exact value, the origin cell of any radius (power_norm)."""
    _validated(config.params, strict=True)
    p = config.params
    gp = GroupParams(n=p.n)
    e = derive_exponents(p)
    f = extremizer_profile(e, 1)
    space = source_space(p, 1)
    t0 = time.perf_counter()
    closed = power_norm(p, 1, gp)
    est = morrey_norm(f, space, config.grid, gp)
    ms = int(round((time.perf_counter() - t0) * 1000))
    note = (
        f"grid lower bound vs exact origin-cell value (radius-independent "
        f"under the matched content weight); argmax cell |a|="
        f"{est.argmax_center_radius:g}, R={est.argmax_R:g}"
    )
    return [
        compare(
            f"morrey-norm extremizer j=1 m={p.m} n={p.n}",
            closed,
            est.value,
            0.05,
            convention_note=note,
            seed=config.mc.seed,
            runtime_ms=ms,
        )
    ]


def _cmd_group_check(config: RunConfig) -> List[VerificationReport]:
    """Group axioms on random triples plus a Monte Carlo ball volume check."""
    n = config.params.n
    gp = GroupParams(n=n)
    mc = config.mc
    d = gp.dim
    rng = keyed_rng(mc.seed, _PURPOSE_GROUP)
    N = _GROUP_TRIPLES
    X = rng.uniform(-3.0, 3.0, size=(N, d))
    Y = rng.uniform(-3.0, 3.0, size=(N, d))
    Z = rng.uniform(-3.0, 3.0, size=(N, d))
    r = np.exp(rng.uniform(-3.0, 3.0, size=N))
    E = np.zeros((N, d))

    def max_dev(a, b):
        return float(np.max(np.abs(a - b)))

    # (label, deviation, note) rows; each deviation is timed on its own.
    axioms = (
        ("group-associativity",
         lambda: max_dev(mul_arrays(mul_arrays(X, Y, n), Z, n), mul_arrays(X, mul_arrays(Y, Z, n), n)),
         f"max coordinate deviation over {N} uniform triples in [-3,3]^{d}"),
        ("group-identity-inverse",
         lambda: max(max_dev(mul_arrays(X, E, n), X), max_dev(mul_arrays(E, X, n), X),
                     max_dev(mul_arrays(X, -X, n), E)),
         "x o e = e o x = x and x o x^(-1) = e, max coordinate deviation"),
        ("gauge-homogeneity",
         lambda: max_dev(hnorm_arrays(dilate_arrays(r, X, n), n), r * hnorm_arrays(X, n)),
         "|delta_r x| = r |x| over log-uniform r in [e^-3, e^3]"),
        ("dilation-morphism",
         lambda: max_dev(dilate_arrays(r, mul_arrays(X, Y, n), n),
                         mul_arrays(dilate_arrays(r, X, n), dilate_arrays(r, Y, n), n)),
         "delta_r(x o y) = delta_r(x) o delta_r(y), max coordinate deviation"),
    )
    records: List[VerificationReport] = []
    for label, deviation, note in axioms:
        t0 = time.perf_counter()
        dev = deviation()
        ms = int(round((time.perf_counter() - t0) * 1000))
        records.append(compare(f"{label} n={n}", 0.0, dev, _PROPERTY_TOL,
                               convention_note=note, seed=mc.seed, runtime_ms=ms))

    one = lambda pts: np.ones(pts.shape[0])
    for radius in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        est, se = mc_ball_integral(one, identity(n), radius, gp, mc)
        exact = gp.Omega_Q * radius**gp.Q
        ms = int(round((time.perf_counter() - t0) * 1000))
        tol = (3.0 * se + 1e-12) / exact
        records.append(compare(
            f"ball-volume n={n} r={radius:g}", exact, est, tol,
            convention_note=f"box-rejection Monte Carlo, stderr={se:.3e}, tolerance 3*stderr",
            seed=mc.seed, runtime_ms=ms))
    return records


_DISPATCH = {
    "constant": _cmd_constant,
    "verify-dilation": _cmd_verify_dilation,
    "verify-sharpness": _cmd_verify_sharpness,
    "group-check": _cmd_group_check,
    "morrey-norm": _cmd_morrey_norm,
    "oracle-compare": _cmd_oracle_compare,
}
COMMANDS = tuple(_DISPATCH)


def run(config: RunConfig, stream=None) -> int:
    """Execute the configured command and write its report file.

    Returns the exit status (0 all passed, 1 verification failure, 2 usage
    error).  Invalid parameters and divergent integrals raise UsageError
    naming the violated conditions, so no input ends in a traceback.  Every
    record of a run goes through this single writer, in
    command order.
    """
    out = stream if stream is not None else sys.stdout
    try:
        records = _DISPATCH[config.command](config)
    except UsageError:
        raise
    except DivergenceError as exc:
        raise UsageError(f"{exc} [{'; '.join(exc.conditions)}]") from exc
    except (ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from exc

    if config.format == "csv":
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for (lo, hi), r in zip(config.widths, records):
                writer.writerow((lo, hi, r.oracle, r.closed_form, r.oracle / r.closed_form))
    else:
        write_reports(config.output_path, [_header_record(config), *records])

    ok = True
    for r in records:
        status = "passed" if r.passed else "FAILED"
        ok = ok and r.passed
        # a comparison against zero fell back to its absolute error
        err = f"abs_err={r.abs_err:.3e}" if r.rel_err == math.inf else f"rel_err={r.rel_err:.3e}"
        print(f"{status}  {r.label}  {err}  tol={r.tolerance:g}", file=out)
    print(f"wrote {len(records)} records to {config.output_path}", file=out)
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = config_from_args(argv)
        status = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
