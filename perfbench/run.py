#!/usr/bin/env python3
"""hlp_sharp benchmark: CLI workloads timed end to end, plus a traced run
that breaks one pass down by module.

    python3 perfbench/run.py --workload sharpness_small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/` and nowhere else.  Every invocation goes through the
public CLI path, `hlp_sharp.cli.config_from_args` then `hlp_sharp.cli.run`,
in this one process.  Reports are checked record by record, and every pass
of one seed must produce the same report bytes apart from `runtime_ms`.

With `--trace 0` the run measures set-up time (cold interpreter starts),
then repeats passes over the workload's invocations for up to `--seconds`
(at least two passes) and prints the end-to-end metrics.  With
`--trace 1` it runs one untraced and one traced pass, checks that their
reports match byte for byte, and prints per-layer metrics: self time and
call counts per module from the spans, and fixed-size layer probes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 when
every check passed, 1 when a correctness check failed, 2 on bad usage or
when the package sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "hlp_sharp"
WORK = ROOT / ".perfbench"  # report and trace files; never committed
SETUP_STARTS = 7
MIN_PASSES = 2
RUNTIME_MS = re.compile(rb'"runtime_ms": -?\d+')
STDERR_NOTE = re.compile(r"stderr=([0-9.eE+-]+)")
MC_TARGET_REL_ERR = 1e-3
# Acceptance band of the sharpness ratio over its constant; the record's own
# tolerance (0.1) would let a ratio above 1 pass.
SHARPNESS_BAND = (0.90, 1.0 + 1e-3)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s_p50": "s",
    "verify_s_p90": "s",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}

_UNIT_SUFFIXES = (
    (".calls", "count"), (".spans", "count"), ("attempted", "count"), ("failed", "count"),
    ("_errors", "count"), (".lines.total", "count"), ("ms_per_call", "ms"),
    ("us_per_call", "us"), ("us_per_record", "us"), ("ns_per_call", "ns"),
    ("ns_per_point", "ns"), ("bytes_per_point", "B"), ("samples_per_s", "1/s"),
    (".ms", "ms"), ("_s", "s"), (".s", "s"), ("share", "1"), ("speedup", "1"),
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    tail = re.sub(r"\.(n\d|threads1|hlp_m2|hilbert_m2|s2k|s100k)", "", metric)
    for suffix, unit in _UNIT_SUFFIXES:
        if tail.endswith(suffix):
            return unit
    raise KeyError(f"no unit rule for metric {metric!r}")


@dataclasses.dataclass
class Outcome:
    """One invocation: cli.run seconds, normalized report bytes (or the
    error), its records and why it failed."""

    seconds: float
    report: bytes
    records: list
    failure: str = ""


@dataclasses.dataclass
class Pass:
    wall: float
    outcomes: list

    @property
    def failures(self):
        return [(i, o.failure) for i, o in enumerate(self.outcomes) if o.failure]

    @property
    def reports(self):
        return [o.report for o in self.outcomes]


def _invoke(cli, inv, path):
    """Run one invocation through the CLI path; never raises."""
    seconds = 0.0
    try:
        config = cli.config_from_args(list(inv.argv) + ["--out", str(path)])
        if inv.grid is not None:
            config = dataclasses.replace(config, grid=inv.grid(config.grid))
        t0 = perf_counter()
        try:
            status = cli.run(config, stream=io.StringIO())
        finally:
            seconds = perf_counter() - t0
        return status, seconds, ""
    except SystemExit as exc:  # argparse rejects the argv
        return 2, seconds, f"exit {exc.code} while parsing {' '.join(inv.argv)}"
    except Exception as exc:  # a boundary that must keep running: record and go on
        return None, seconds, f"{type(exc).__name__}: {exc}"


def _check(status, seconds, error, path) -> Outcome:
    if error:
        return Outcome(seconds, f"error: {error}".encode(), [], error)
    # The file stays for the next pass to overwrite: unlinking hundreds of
    # small files per second between timed passes made pass times drift on
    # a disk mounted with online discard.
    data = path.read_bytes()
    records = [json.loads(line) for line in data.splitlines() if line.strip()]
    verdicts = [r for r in records if "passed" in r]
    failing = [r.get("label", "?") for r in verdicts if r["passed"] is not True]
    for r in verdicts:
        if str(r.get("label", "")).startswith("sharpness"):
            ratio = float(r["oracle"]) / float(r["closed_form"])
            if not SHARPNESS_BAND[0] <= ratio <= SHARPNESS_BAND[1]:
                failing.append(f"{r['label']} (ratio/constant {ratio:.6f} outside {SHARPNESS_BAND})")
    failure = ""
    if status != 0:
        failure = f"exit status {status}"
    if failing:
        failure = f"records failed: {', '.join(failing)}"
    elif not verdicts:
        failure = "report holds no verification records"
    return Outcome(seconds, RUNTIME_MS.sub(b'"runtime_ms": 0', data), records, failure)


def run_pass(invs, workdir: Path, tracer=None) -> Pass:
    """One pass over the invocations; tracer, if given, records it."""
    from hlp_sharp import cli

    paths = [workdir / f"inv{i}.jsonl" for i in range(len(invs))]
    raw = []
    with tracer.span("bench.pass") if tracer else nullcontext():
        t0 = perf_counter()
        for i, (inv, path) in enumerate(zip(invs, paths)):
            if tracer:
                tracer.invocation = i
            raw.append(_invoke(cli, inv, path))
        wall = perf_counter() - t0
    return Pass(wall, [_check(*r, path) for r, path in zip(raw, paths)])


def measure_setup(argv, starts=SETUP_STARTS):
    """Seconds from launching a fresh interpreter until it holds a parsed
    RunConfig; the child prints its monotonic clock at that point, so
    interpreter teardown is not counted."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import hlp_sharp; "
            "from hlp_sharp import cli; cli.config_from_args(sys.argv[2:]); "
            "print(time.perf_counter())")
    env = {k: v for k, v in os.environ.items() if k not in ("HLP_SHARP_THREADS", "PYTHONPATH")}
    times = []
    for _ in range(starts):
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        times.append(float(child.stdout.split()[-1]) - t0)
    return times


def mc_time_to_target(p: Pass, invs) -> float:
    """morrey-norm seconds scaled to a 1e-3 relative Monte Carlo error of the
    argmax cell: time * (stderr / value / 1e-3)^2, summed over morrey-norm
    invocations; 0 when the workload runs none."""
    total = 0.0
    for inv, o in zip(invs, p.outcomes):
        if inv.command != "morrey-norm" or o.failure:
            continue
        rec = next(r for r in o.records if "passed" in r)
        match = STDERR_NOTE.search(rec.get("convention_note", ""))
        if match is None or not rec["oracle"]:
            print("morrey-norm record carries no stderr; mc time not measured", file=sys.stderr)
            continue
        rel = float(match.group(1)) / float(rec["oracle"])
        total += o.seconds * (rel / MC_TARGET_REL_ERR) ** 2
    return total


def src_lines():
    per_module = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
                  for p in sorted(PACKAGE_DIR.glob("*.py"))}
    return per_module, sum(per_module.values())


def timed_run(workload, seed, seconds, workdir, invs=None):
    import workloads

    if invs is None:
        invs = workloads.invocations(workload, seed)
    setup = measure_setup(list(invs[0].argv) + ["--out", str(workdir / "setup.jsonl")])
    # Only the first pass's reports are kept, so memory does not grow with
    # the number of passes that fit in the measuring time.  A pass starts
    # only if one more of the last pass's length still ends within `seconds`.
    first, walls, times, errors, failed = None, [], [], [], 0
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start + walls[-1] <= seconds:
        p = run_pass(invs, workdir)
        k = len(walls)
        if first is None:
            first = p.reports
        walls.append(p.wall)
        times.extend(o.seconds for o in p.outcomes)
        failed += len(p.failures)
        errors.extend(f"pass {k} invocation {i}: {why}" for i, why in p.failures)
        errors.extend(f"pass {k} invocation {i}: report differs from pass 0 (same seed)"
                      for i, (a, b) in enumerate(zip(first, p.reports)) if a != b)
    attempted = len(invs) * len(walls)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "verify_s_p50": (statistics.median(times), len(times)),
        "verify_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], len(times)),
        "pass_ratio": ((attempted - failed) / attempted, attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return errors, attempted, failed, {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()}


def trace_run(workload, seed, workdir, quick=False, invs=None):
    import probes
    import workloads
    from tracing import Tracer, summarize

    if invs is None:
        invs = workloads.invocations(workload, seed)
    untraced = run_pass(invs, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(invs, workdir, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{workload}-seed{seed}.jsonl")

    errors = [f"{label} invocation {i}: {why}" for label, p in (("untraced", untraced), ("traced", traced))
              for i, why in p.failures]
    for i, (a, b) in enumerate(zip(untraced.reports, traced.reports)):
        if a != b:
            errors.append(f"invocation {i}: traced report differs from untraced report")
    layer = summarize(tracer)
    self_sum = layer.pop("trace.self_sum_s")
    if abs(self_sum - layer["trace.wall_s"]) > 1e-6 * layer["trace.wall_s"]:
        errors.append(f"self times sum to {self_sum}, traced wall is {layer['trace.wall_s']}")
    layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced.wall
    layer["morrey.mc_time_to_1e-3_s"] = mc_time_to_target(untraced, invs)

    mc, mc_errors = probes.mc_probes(quick)
    errors.extend(mc_errors)
    layer.update(mc)
    layer.update(probes.hgroup_probes(quick))
    layer.update(probes.apply_radii_probes(quick))
    layer.update(probes.one_d_probes(quick))
    divergence_errors = 0
    for band in workloads.MARGIN_BANDS:
        draws = run_pass(workloads.band_draws(seed, band, 1 if quick else workloads.BAND_PER_COMBO), workdir)
        layer[f"oracle.{band}.attempted"] = len(draws.outcomes)
        layer[f"oracle.{band}.failed"] = len(draws.failures)
        divergence_errors += sum(why.startswith("DivergenceError") for _, why in draws.failures)
    layer["quad.oracle.divergence_errors"] = divergence_errors
    layer["src.lines.total"] = src_lines()[1]

    attempted = 2 * len(invs)
    failed = len(untraced.failures) + len(traced.failures)
    return errors, attempted, failed, {k: (v, unit_of(k), 1) for k, v in layer.items()}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    os.environ.pop("HLP_SHARP_THREADS", None)
    sys.path.insert(0, str(SRC))
    import hlp_sharp

    if Path(hlp_sharp.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"error: imported hlp_sharp from {hlp_sharp.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            errors, attempted, failed, metrics = trace_run(args.workload, args.seed, workdir)
        else:
            errors, attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    per_module, total = src_lines()
    print(json.dumps({"src.lines": per_module, "src.lines.total": total}))
    for name, (value, unit, count) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit:6s} samples={count}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
