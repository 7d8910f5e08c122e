"""In-process spans around the public functions of each skmslab module.

`install(tracer)` replaces every public function, the public methods and
`__init__` of every public class, of each layer module with a wrapper
that records a span, and rebinds every module attribute that held the
original, so `from .kernels import chain_integral` copies are patched
too.  `scipy.linalg.expm` is wrapped the same way.  The returned
callable restores every original.

A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.
"""

import enum
import functools
import inspect
import sys
import time

import scipy.linalg

LAYERS = {
    "graded": ("skmslab.graded",),
    "kernels": ("skmslab.kernels",),
    "dynamics": ("skmslab.dynamics",),
    "cochain": ("skmslab.cochain",),
    "perturbation": ("skmslab.perturbation",),
    "workbench": ("skmslab.workbench.models", "skmslab.workbench.reports",
                  "skmslab.workbench.suites"),
}

# Bindings named in the benchmark's contract with later changes: span name,
# modules expected to hold the binding, and the attribute path in each.  A
# name the code no longer has is reported absent rather than failing.
BINDINGS = (
    ("kernels.chain_integral",
     ("skmslab.kernels", "skmslab.cochain", "skmslab.perturbation"),
     "chain_integral"),
    ("cochain.is_scalar_slot", ("skmslab.cochain", "skmslab.perturbation"),
     "is_scalar_slot"),
    ("cochain.connes_B", ("skmslab.cochain", "skmslab.perturbation"),
     "connes_B"),
    ("cochain.hochschild_b", ("skmslab.cochain", "skmslab.perturbation"),
     "hochschild_b"),
    ("scipy.expm", ("scipy.linalg",), "expm"),
    ("dynamics.GradedSystem", ("skmslab.dynamics",), "GradedSystem.__init__"),
    ("perturbation.PerturbedContext", ("skmslab.perturbation",),
     "PerturbedContext.__init__"),
    ("kernels.Spectrum", ("skmslab.kernels",), "Spectrum.__init__"),
    ("kernels.weight_for_counts", ("skmslab.kernels",),
     "Spectrum.weight_for_counts"),
    ("perturbation.tau_r_eval", ("skmslab.perturbation",), "tau_r_eval"),
    ("perturbation.F_r_eval", ("skmslab.perturbation",), "F_r_eval"),
)


class Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Aggregated spans: per-name calls, self and inclusive time, counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.on = False
        self.stats = {}
        self.layer_of = {}
        self.counters = {}
        self.chain_us = {}
        self.pert_kernel_s = 0.0
        self._stack = []
        self._open = {}

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def enter(self, name, layer):
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, layer, start, child = frame
        dur = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
            self.layer_of[name] = layer
        stat.calls += 1
        stat.self_s += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            # only the outermost span of a recursive name adds inclusive time
            stat.incl_s += dur
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            if parent[1] == "perturbation" and layer in ("kernels", "scipy"):
                self.pert_kernel_s += dur
        return dur

    def layer_self(self, layer):
        return sum(s.self_s for n, s in self.stats.items()
                   if self.layer_of[n] == layer)

    def stat(self, name):
        return self.stats.get(name) or Stat()


def _span(tracer, name, layer, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.leave(frame)
        if after is not None:
            result = after(tracer, args, result, dur)
        return result
    wrapper.span_name = name
    return wrapper


def _chain_after(tracer, args, result, dur):
    spectrum, xs = args[0], args[1]
    key = "d%dn%d" % (spectrum.dim, len(xs) - 1)
    tracer.chain_us.setdefault(key, []).append(dur * 1e6)
    return result


def _chain_integral_span(tracer, fn):
    from skmslab.errors import ChainBudgetExceeded

    inner = _span(tracer, "kernels.chain_integral", "kernels", fn, _chain_after)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except ChainBudgetExceeded:
            tracer.count("kernels.chain_integral.refused")
            raise
    wrapper.span_name = inner.span_name
    return wrapper


def _integrand_after(tracer, args, integrand, dur):
    traced = _span(tracer, "kernels.heat_chain_integrand.eval", "kernels",
                   integrand)

    def counted(points):
        # the closure outlives the traced pass; checks call it untraced
        if not tracer.on:
            return integrand(points)
        tracer.count("kernels.heat_chain_integrand.points", len(points))
        return traced(points)
    return counted


def _emit_after(tracer, args, text, dur):
    tracer.count("workbench.emit_report.bytes", len(text.encode()))
    return text


def _expm_after(tracer, args, result, dur):
    tracer.peak("scipy.expm.dim_max", result.shape[0])
    return result


AFTER = {
    "kernels.heat_chain_integrand": _integrand_after,
    "workbench.emit_report": _emit_after,
    "scipy.expm": _expm_after,
}


def _public_callables(module):
    """(qualified attribute path, owner, attribute, function) to wrap."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((attr, module, attr, obj))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException,
                                                            enum.Enum)):
            for name, member in sorted(vars(obj).items()):
                if inspect.isfunction(member) and (name == "__init__"
                                                   or not name.startswith("_")):
                    out.append(("%s.%s" % (attr, name), obj, name, member))
    return out


def _span_name(layer, path):
    # Class.__init__ is the span "<layer>.Class"; a method is "<layer>.method"
    head, _, tail = path.partition(".")
    if tail == "__init__":
        return "%s.%s" % (layer, head)
    return "%s.%s" % (layer, tail or head)


def install(tracer):
    """Wrap every layer function and binding; returns the undo callable."""
    saved = []
    wrapped = {}

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, modnames in LAYERS.items():
        for modname in modnames:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for path, owner, attr, fn in _public_callables(module):
                name = _span_name(layer, path)
                if name == "kernels.chain_integral":
                    new = _chain_integral_span(tracer, fn)
                else:
                    new = _span(tracer, name, layer, fn, AFTER.get(name))
                patch(owner, attr, new)
                if owner is module:
                    wrapped[id(fn)] = (fn, new)
    expm = scipy.linalg.expm
    new = _span(tracer, "scipy.expm", "scipy", expm, AFTER["scipy.expm"])
    patch(scipy.linalg, "expm", new)
    wrapped[id(expm)] = (expm, new)

    # rebind every copy made by `from module import name`
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("skmslab") or module is None:
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(module, attr, hit[1])

    def undo():
        tracer.on = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    tracer.on = True
    return undo


def binding_report():
    """For each contract binding: modules where it is wrapped, or absent.

    Call while installed; a binding counts as wrapped when the attribute
    found there is a span wrapper.
    """
    report = {}
    for name, modnames, path in BINDINGS:
        found, missing = [], []
        for modname in modnames:
            obj = sys.modules.get(modname)
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(modname)
            elif getattr(obj, "span_name", None) == name:
                found.append(modname)
            else:
                missing.append(modname + " (unwrapped)")
        report[name] = {"wrapped": found, "absent": missing}
    return report
