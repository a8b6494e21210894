"""Per-layer tracing, installed from outside the package.

Two instruments run together in the one traced pass:

* ``time.perf_counter`` spans around the calls that cross a layer
  boundary (``SPANS``).  Each span records its name, start, end and the
  span that caused it; a stage's time is the total of its outermost spans.
* ``cProfile``, for exact call counts and for each layer's self time.  A
  function outside qtoda (``fractions``, builtins, ``json``) has its self
  time charged to the innermost qtoda function that called it, so that
  for example ``Fraction`` arithmetic counts toward ``scalars``.

The layers are the modules of ``qtoda``.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import importlib
import os
import pstats
import sys
import time

LAYERS = ("scalars", "torus", "diffop", "qrep", "engine", "limits",
          "degenerations", "cli")

#: span name -> (module, function or Class.method)
SPANS = {
    "engine.build": ("engine", "build_toda_operator"),
    "engine.expand": ("engine", "expand_central_words"),
    "engine.reduce": ("engine", "whittaker_reduce"),
    "qrep.rep": ("qrep", "fundamental_rep"),
    "qrep.serre": ("qrep", "verify_serre_homomorphism"),
    "diffop.compose": ("diffop", "DiffOp.compose"),
    "diffop.gauge": ("diffop", "DiffOp.gauge_monomial"),
    "diffop.quotient": ("diffop", "DiffOp.quotient_reduce"),
    "diffop.automorphism": ("diffop", "sect6_automorphism"),
    "diffop.factor_conjugate": ("diffop", "conjugate_by_factor_product"),
    "limits.quasiclassical": ("limits", "quasiclassical_limit"),
    "limits.jet": ("limits", "difference_op_jet"),
    "limits.cm": ("limits", "cm_limit"),
    "degenerations.macdonald": ("degenerations", "macdonald_toda_limit"),
    "degenerations.gauge_check": ("degenerations",
                                  "relativistic_gauge_check"),
    "degenerations.macdonald_operator": ("degenerations",
                                         "macdonald_operator"),
}

#: spans whose returned operators are sized: the engine's output, every
#: product, and the one operator with genuinely rational coefficients
SIZED = ("engine.build", "diffop.compose",
         "degenerations.macdonald_operator")

#: Fraction constructions plus arithmetic, as ``fractions`` names them
FRACTION_OPS = frozenset((
    "__new__", "_add", "_sub", "_mul", "_div", "_floordiv", "_divmod",
    "_mod", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__"))

_BENCH = "<bench>"
_OTHER = "<other>"


def _resolve(modname, attr):
    mod = importlib.import_module("qtoda." + modname)
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(mod, cls), meth
    return mod, attr


class Tracer:
    """Spans, boundary counts and a profile for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock       # span timestamps
        self.spans = []          # (name, start, end, parent index)
        self.outputs = []        # operators returned by SIZED spans
        self.product_terms = 0   # sum of |A| * |B| over compositions
        self.words = 0           # trace words from expand_central_words
        self.profile = cProfile.Profile()
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qtoda" or name.startswith("qtoda.")]
        for name, (modname, attr) in SPANS.items():
            owner, key = _resolve(modname, attr)
            orig = getattr(owner, key)
            wrapped = self._wrap(name, orig)
            if owner is not importlib.import_module("qtoda." + modname):
                self._set(owner, key, wrapped)       # a method
                continue
            for mod in modules:                      # every imported alias
                for alias, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, alias, wrapped)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == "diffop.compose":
                other = args[1]
                tracer.product_terms += len(args[0].terms) * len(
                    getattr(other, "terms", (0,)))
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if name in SIZED:
                tracer.outputs.append(out)
            elif name == "engine.expand":
                tracer.words += len(out)
            return out
        return span

    def stage_times(self):
        """name -> (outermost-span seconds, calls)."""
        out = {name: [0.0, 0] for name in SPANS}
        for name, start, end, parent in self.spans:
            out[name][1] += 1
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                out[name][0] += end - start
        return out

    # -- profile -----------------------------------------------------------

    def layer_profile(self, qtoda_dir, bench_dir):
        """Self time per layer and per qtoda function, and call counts."""
        stats = pstats.Stats(self.profile).stats
        qtoda_dir = os.path.join(os.path.realpath(qtoda_dir), "")
        bench_dir = os.path.join(os.path.realpath(bench_dir), "")
        owners, memo = {}, {}

        def owner(key):
            if key not in owners:
                path = os.path.realpath(key[0]) if key[1] else ""
                owners[key] = key if path.startswith(qtoda_dir) else \
                    _BENCH if path.startswith(bench_dir) else None
            return owners[key]

        def charged_to(key, seen=frozenset()):
            """How time under ``key`` splits among owners, by caller."""
            own = owner(key)
            if own is not None:
                return {own: 1.0}
            if key in memo:
                return memo[key]
            callers = stats[key][4] if key in stats else {}
            total = sum(edge[3] for edge in callers.values())
            if key in seen or not callers or total <= 0:
                return {_OTHER: 1.0}
            res = {}
            for caller, edge in callers.items():
                for o, w in charged_to(caller, seen | {key}).items():
                    res[o] = res.get(o, 0.0) + w * edge[3] / total
            memo[key] = res
            return res

        self_time = {}
        for key, (_, _, tt, _, callers) in stats.items():
            if owner(key) is not None or not callers:
                o = owner(key) or _OTHER
                self_time[o] = self_time.get(o, 0.0) + tt
                continue
            for caller, edge in callers.items():
                for o, w in charged_to(caller).items():
                    self_time[o] = self_time.get(o, 0.0) + edge[2] * w
        by_layer = {layer: 0.0 for layer in LAYERS}
        by_func = {}
        for o, t in self_time.items():
            if o in (_BENCH, _OTHER):
                continue
            layer = os.path.splitext(os.path.basename(o[0]))[0]
            if layer in by_layer:
                by_layer[layer] += t
            by_func["%s:%s" % (layer, o[2])] = \
                by_func.get("%s:%s" % (layer, o[2]), 0.0) + t
        calls_by_layer = {layer: 0 for layer in LAYERS}
        for key, entry in stats.items():
            own = owner(key)
            if own not in (None, _BENCH):
                layer = os.path.splitext(os.path.basename(key[0]))[0]
                if layer in calls_by_layer:
                    calls_by_layer[layer] += entry[1]
        return by_layer, by_func, calls_by_layer, stats

    @staticmethod
    def calls(stats, fn):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        return stats[key][1] if key in stats else 0

    @staticmethod
    def fraction_ops(stats):
        path = os.path.realpath(fractions.__file__)
        return sum(entry[1] for key, entry in stats.items()
                   if key[2] in FRACTION_OPS and key[1]
                   and os.path.realpath(key[0]) == path)


def operator_sizes(ops):
    """Exact sizes of operators: shift terms, scalar terms (total and
    largest) over numerators and denominators, and denominator terms."""
    shift_terms = scalar_total = scalar_max = den_terms = 0
    for op in ops:
        shift_terms += len(op.terms)
        for f in op.terms.values():
            den_terms += len(f.den.terms)
            for poly in (f.num, f.den):
                for c in poly.terms.values():
                    scalar_total += len(c.terms)
                    scalar_max = max(scalar_max, len(c.terms))
    return {"diffop.shift_terms": shift_terms,
            "scalars.terms_total": scalar_total,
            "scalars.terms_max": scalar_max,
            "torus.den_terms": den_terms}
