"""Fixed-size layer probes: each public layer function timed alone, at fixed
seeds and sizes, independent of the workload being traced.

A probe whose function no longer exists reports 0 and says so on stderr, so
the benchmark keeps running while the package is refactored.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import sys
from time import perf_counter

import numpy as np

PROBE_SEED = 12345
MC_SIZES = {"s2k": 2_000, "s100k": 100_000}
MC_SHARDS = 8  # MCSpec default; the hgroup probes use its per-shard batch
HGROUP_BATCH = MC_SIZES["s100k"] // MC_SHARDS
# Sharpness knot net of the default grid (radii 1e-2..1e2, center norms up
# to 4): geometric from min radius / 100 to 1.1 * (4 + 100), 48 per decade.
KNOTS_LO, KNOTS_HI = 1e-4, 1.1 * 104.0


def _median_time(fn, min_reps=3, min_seconds=0.2, max_reps=1000):
    """Median seconds per call after one warm-up call."""
    fn()
    times = []
    start = perf_counter()
    while len(times) < min_reps or (perf_counter() - start < min_seconds and len(times) < max_reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _resolve(path):
    """The hlp_sharp attribute named "module.function"."""
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(f"hlp_sharp.{module}"), name)


def _missing(name, exc):
    print(f"probe {name}: unavailable ({type(exc).__name__}: {exc}); reporting 0", file=sys.stderr)
    return 0.0


def _with_threads(value, fn):
    """Run fn with HLP_SHARP_THREADS set to value (None: unset)."""
    old = os.environ.pop("HLP_SHARP_THREADS", None)
    if value is not None:
        os.environ["HLP_SHARP_THREADS"] = str(value)
    try:
        return fn()
    finally:
        os.environ.pop("HLP_SHARP_THREADS", None)
        if old is not None:
            os.environ["HLP_SHARP_THREADS"] = old


def mc_probes(quick=False):
    """mc_ball_integral on the polar path (|x|^-1/2 on the unit ball about
    the origin, origin_exponent -1) and the plain path (f = 1), each result
    checked against its exact value within 6 standard errors."""
    from hlp_sharp.hgroup import GroupParams, hnorm_arrays, identity
    from hlp_sharp.quad import MCSpec, mc_ball_integral

    out, errors = {}, []
    times = {}
    for n in (1, 2):
        gp = GroupParams(n=n)
        cases = {
            "polar": (lambda X, n=n: hnorm_arrays(X, n) ** -0.5, -1.0,
                      gp.omega_Q / (gp.Q - 0.5)),
            "plain": (lambda X: np.ones(X.shape[0]), 0.0, gp.Omega_Q),
        }
        for path, (f, beta, exact) in cases.items():
            for size, samples in MC_SIZES.items():
                if quick:
                    samples = min(samples, 4_000)
                mc = MCSpec(samples=samples, seed=PROBE_SEED)

                def call(f=f, mc=mc, gp=gp, beta=beta, n=n):
                    return mc_ball_integral(f, identity(n), 1.0, gp, mc, origin_exponent=beta)

                est, se = call()
                if not abs(est - exact) <= 6.0 * se + 1e-12 * exact:
                    errors.append(f"mc probe {path} n={n} {size}: {est} vs exact {exact} (se {se})")
                reps = 1 if quick else 3
                for threads, suffix in ((None, ""), (1, ".threads1")):
                    t = _with_threads(threads, lambda: _median_time(call, reps, 0.0 if quick else 0.2))
                    times[(path, size, n, threads)] = t
                    out[f"quad.mc.{path}.ms.{size}.n{n}{suffix}"] = 1e3 * t
    for path in ("polar", "plain"):
        for n in (1, 2):
            dt = times[(path, "s100k", n, None)] - times[(path, "s2k", n, None)]
            extra = MC_SIZES["s100k"] - MC_SIZES["s2k"]
            out[f"quad.mc.{path}.samples_per_s.n{n}"] = extra / dt if dt > 0.0 else 0.0
    t_default = sum(t for k, t in times.items() if k[3] is None)
    t_single = sum(t for k, t in times.items() if k[3] == 1)
    out["quad.mc.thread_speedup"] = t_single / t_default
    return out, errors


def hgroup_probes(quick=False):
    """Group kernels on one Monte Carlo shard batch; bytes per point are
    computed from the array shapes (inputs read plus output written, float64),
    not measured."""
    from hlp_sharp import hgroup

    out = {}
    rng = np.random.default_rng(PROBE_SEED)
    size = 1000 if quick else HGROUP_BATCH
    for n in (1, 2):
        d = 2 * n + 1
        X = rng.uniform(-1.0, 1.0, size=(size, d))
        Y = rng.uniform(-1.0, 1.0, size=(size, d))
        r = rng.uniform(0.5, 2.0, size=size)
        kernels = {
            "mul_arrays": (lambda: hgroup.mul_arrays(X, Y, n), 8 * 3 * d),
            "hnorm_arrays": (lambda: hgroup.hnorm_arrays(X, n), 8 * (d + 1)),
            "dilate_arrays": (lambda: hgroup.dilate_arrays(r, X, n), 8 * (2 * d + 1)),
        }
        for name, (fn, nbytes) in kernels.items():
            try:
                t = _median_time(fn, 3, 0.0 if quick else 0.1)
                out[f"hgroup.{name}.ns_per_point.n{n}"] = 1e9 * t / size
            except AttributeError as exc:
                out[f"hgroup.{name}.ns_per_point.n{n}"] = _missing(name, exc)
            out[f"hgroup.{name}.computed_bytes_per_point.n{n}"] = nbytes
    return out


def _default_params(m):
    from hlp_sharp import cli

    return cli.config_from_args(["--command", "verify-sharpness", "--m", str(m)]).params


def apply_radii_probes(quick=False):
    """apply_radii for both kernels at m=2 on the sharpness knot net, with
    fresh truncated extremizers each call."""
    from hlp_sharp.hgroup import GroupParams
    from hlp_sharp.operators import apply_radii, extremizer_profile
    from hlp_sharp.params import derive_exponents
    from hlp_sharp.quad import QuadratureSpec

    p = _default_params(2)
    e = derive_exponents(p)
    gp = GroupParams(n=p.n)
    count = 24 if quick else math.ceil(48.0 * math.log10(KNOTS_HI / KNOTS_LO))
    knots = np.geomspace(KNOTS_LO, KNOTS_HI, count)
    out = {}
    for kind in ("hlp", "hilbert"):
        def call(kind=kind):
            profiles = [extremizer_profile(e, j + 1, truncation=(1e-2, 1e2)) for j in range(2)]
            return apply_radii(kind, profiles, knots, gp, QuadratureSpec())

        out[f"operators.apply_radii.s.{kind}_m2"] = _median_time(call, 1 if quick else 3, 0.0)
    return out


def one_d_probes(quick=False):
    """Per-call times of the oracles, closed forms, reconcile, log_gamma,
    validate and to_json_line on the README quick-start parameters."""
    from hlp_sharp.hgroup import GroupParams
    from hlp_sharp.params import derive_exponents
    from hlp_sharp.quad import QuadratureSpec

    p = _default_params(2)
    e = derive_exponents(p)
    gp = GroupParams(n=p.n)
    spec = QuadratureSpec()
    budget = 0.0 if quick else 0.1
    probes = {
        "quad.hlp_constant_oracle.ms_per_call": (1e3, "quad.hlp_constant_oracle", (e, gp, spec)),
        "quad.hilbert_constant_oracle.ms_per_call": (1e3, "quad.hilbert_constant_oracle", (e, gp, spec)),
        "constants.hlp_closed_form.us_per_call": (1e6, "constants.hlp_closed_form", (e, gp)),
        "constants.hilbert_closed_form.us_per_call": (1e6, "constants.hilbert_closed_form", (e, gp)),
        "constants.reconcile.ms_per_call": (1e3, "constants.reconcile", (p, "hilbert", gp, spec)),
        "specfun.log_gamma.ns_per_call": (1e9, "specfun.log_gamma", (0.375,)),
        "params.validate.us_per_call": (1e6, "params.validate", (p,)),
    }
    out = {}
    for metric, (scale, path, args) in probes.items():
        try:
            fn = _resolve(path)
        except (AttributeError, ImportError) as exc:
            out[metric] = _missing(path, exc)
            continue
        out[metric] = scale * _median_time(lambda fn=fn, args=args: fn(*args), 3, budget)
    try:
        record = _resolve("constants.reconcile")(p, "hlp", gp, spec)
        to_json_line = _resolve("report.to_json_line")
        out["report.to_json_line.us_per_record"] = 1e6 * _median_time(
            lambda: to_json_line(record), 3, budget)
    except (AttributeError, ImportError) as exc:
        out["report.to_json_line.us_per_record"] = _missing("report.to_json_line", exc)
    return out
