"""In-memory span tracing of the hlp_sharp modules, installed from outside.

`Tracer.install()` replaces every public function of every `hlp_sharp`
module at each name it is bound to (its own module and every module that
imported it by name), so calls resolve to a wrapper that records a span:
name, start, end, parent span and invocation id.  Nothing inside the
package changes, and `uninstall()` restores the original bindings.

Spans are recorded on the main thread only.  `mc_ball_integral` is a leaf:
calls made while one is open (shard workers, integrands, group kernels)
run unrecorded, so the Monte Carlo layer's self time does not depend on
the worker count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "hlp_sharp"
MC_FUNCTION = "quad.mc_ball_integral"
# Layer names reported by the benchmark; spans of any other module count
# under "other".
LAYERS = ("bench", "cli", "params", "constants", "quad", "quad.mc", "operators",
          "morrey", "report", "specfun", "hgroup", "other")


def layer_of(name: str) -> str:
    if name == MC_FUNCTION:
        return "quad.mc"
    module = name.split(".", 1)[0]
    return module if module in LAYERS else "other"


def _mc_path_tagger(fn, hnorm):
    """Tag a mc_ball_integral call with the path its documented contract
    selects: polar for a radial window or an interior origin singularity,
    plain otherwise, empty when the window misses the ball."""
    sig = inspect.signature(fn)

    def tag(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        radius = float(a["radius"])
        c_norm = float(hnorm(a["center"]))
        window = a.get("radial_window")
        if window is not None:
            lo = max(float(window[0]), c_norm - radius, 0.0)
            hi = min(float(window[1]), c_norm + radius)
            return "polar" if hi > lo else "empty"
        beta = min(0.0, float(a.get("origin_exponent", 0.0)))
        return "polar" if beta < 0.0 and c_norm < radius else "plain"

    return tag


def _apply_radii_tagger(args, kwargs):
    kind = args[0] if args else kwargs.get("kind")
    profiles = args[1] if len(args) > 1 else kwargs.get("profiles")
    name = getattr(kind, "kind", kind)
    return f"{name}_m{len(list(profiles))}"


class Tracer:
    """Records spans as [name, start, end, parent, invocation, tag] lists."""

    def __init__(self):
        self.spans = []
        self.invocation = -1
        self._stack = []
        self._leaf_depth = 0
        self._main = threading.get_ident()
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            if not info.name.startswith("_"):  # __main__ would run the CLI
                importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith(PACKAGE + ".")]
        hgroup = sys.modules.get(f"{PACKAGE}.hgroup")
        hnorm = getattr(hgroup, "hnorm", None)
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__[len(PACKAGE) + 1:]}.{obj.__name__}"
                    tagger = None
                    if name == MC_FUNCTION and hnorm is not None:
                        tagger = _mc_path_tagger(obj, hnorm)
                    elif name == "operators.apply_radii":
                        tagger = _apply_radii_tagger
                    wrappers[obj] = self._wrap(obj, name, tagger, leaf=name == MC_FUNCTION)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name, tagger, leaf):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._leaf_depth or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            try:
                tag = tagger(args, kwargs) if tagger is not None else None
            except (TypeError, KeyError, ValueError, IndexError):
                tag = None  # the signature changed; the call still runs and counts
            with tracer.span(name, tag, leaf):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name, tag=None, leaf=False):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.invocation, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._leaf_depth += leaf
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._leaf_depth -= leaf
            self._stack.pop()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] >= 0:
                children[rec[3]].append((rec[1], rec[2]))
        out = []
        for i, rec in enumerate(self.spans):
            covered, reach = 0.0, rec[1]
            for start, end in sorted(children.get(i, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(rec[2] - rec[1] - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inv, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv, "tag": tag}) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; the first span is the pass."""
    spans = tracer.spans
    selfs = tracer.self_times()
    wall = spans[0][2] - spans[0][1]
    calls, self_s = defaultdict(int), defaultdict(float)
    for rec, s in zip(spans, selfs):
        calls[layer_of(rec[0])] += 1
        self_s[layer_of(rec[0])] += s
    out = {"trace.wall_s": wall, "trace.spans": len(spans), "trace.self_sum_s": sum(selfs)}
    for layer in LAYERS:
        if layer != "bench":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["quad.mc.share"] = self_s["quad.mc"] / wall

    def named(name):
        return [(i, rec, s) for i, (rec, s) in enumerate(zip(spans, selfs)) if rec[0] == name]

    for path in ("polar", "plain"):
        durs = [rec[2] - rec[1] for _, rec, _ in named(MC_FUNCTION) if rec[5] == path]
        out[f"quad.mc.{path}.calls"] = len(durs)
        out[f"quad.mc.{path}.ms_per_call"] = 1e3 * sum(durs) / len(durs) if durs else 0.0
    norms = named("morrey.morrey_norm")
    out["morrey.morrey_norm.calls"] = len(norms)
    out["morrey.morrey_norm.self_s"] = sum(s for _, _, s in norms)
    out["morrey.verify_dilation.s"] = sum(rec[2] - rec[1] for _, rec, _ in named("morrey.verify_dilation"))
    phases = {"denominators": 0.0, "apply_radii": 0.0, "numerator": 0.0}
    for i, _, _ in named("morrey.sharpness_ratio"):
        applied = False
        for rec in spans[i + 1:]:
            if rec[3] != i:
                continue
            if rec[0] == "operators.apply_radii":
                phases["apply_radii"] += rec[2] - rec[1]
                applied = True
            elif rec[0] == "morrey.morrey_norm":
                phases["numerator" if applied else "denominators"] += rec[2] - rec[1]
    for phase, seconds in phases.items():
        out[f"morrey.sharpness_ratio.{phase}_s"] = seconds
    out["operators.apply_radii.calls"] = len(named("operators.apply_radii"))
    out["cli.run.self_s"] = sum(s for _, _, s in named("cli.run"))
    parses = [rec[2] - rec[1] for _, rec, _ in named("cli.config_from_args")]
    out["cli.config_from_args.ms"] = 1e3 * sum(parses) / len(parses) if parses else 0.0
    return out
