"""Spans and counters recorded around the calls into each centrex layer.

The tracer patches the program from outside: every public function
defined in a layer module is replaced, in every ``centrex`` namespace that
binds it (``from .x import y`` copies the binding), by a wrapper that
records a span (name, start, end, parent, request id).  Spans and counts
stay in memory until ``write``.  A layer's self time is the duration of its
spans minus the part their child spans cover.  Time is taken with
``time.perf_counter`` only.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("groups", "cochains", "cohomology", "extensions", "su", "loops",
          "forms", "periods", "verify", "report", "cli")

# public methods traced in addition to the module-level functions
METHODS = (("periods", "SphereFamily", "tangents_at"),)

# calls shown per request in the traced run's summary
HEADLINE = ("cohomology.smith_normal_form", "extensions.build_extension",
            "cohomology.all_cochain_values", "forms.eval_R",
            "su.exp_stack", "periods.tangents_at")

ORACLE = ("all_cochain_values", "exhaustive_cocycles",
          "exhaustive_coboundaries", "exhaustive_second_cohomology",
          "class_key")


def _matrix_digest(a):
    """Identity of an SNF input.  Object arrays hold Python ints that can
    run to thousands of digits, so they are hashed as ints, never printed."""
    if a.dtype == object:
        return a.shape, hash(tuple(a.ravel().tolist()))
    data = np.ascontiguousarray(a, dtype=np.int64).tobytes()
    return a.shape, hashlib.blake2b(data, digest_size=16).digest()


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request)
        self.request = None
        self._stack = []         # [span id, child time] of open spans
        self._next_id = 0
        self.reset_round()

    def reset_round(self):
        """Start a fresh set of per-round totals (spans are kept)."""
        self.self_time = defaultdict(float)   # "layer.function" -> seconds
        self.calls = Counter()                # "layer.function" -> calls
        self.request_calls = defaultdict(Counter)  # request -> HEADLINE calls
        self.counts = Counter()               # derived counters
        self._snf_seen = set()                # (request, digest)

    # -- counters taken at the layer boundary ------------------------------

    def _before(self, key, args, kwargs):
        if key == "cohomology.smith_normal_form":
            a = np.asarray(args[0] if args else kwargs["A"])
            self.counts["snf_cells"] += int(a.shape[0]) * int(a.shape[1])
            self._snf_seen.add((self.request, _matrix_digest(a)))

    def _after(self, key, fn, args, kwargs, result):
        if key == "cohomology.delta_matrix":
            self.counts["delta_matrix_bytes"] += int(result.nbytes)
        elif key == "cohomology.all_cochain_values":
            self.counts["oracle_cochains"] += int(result.shape[0])
        elif key == "extensions.build_extension":
            self.counts["elements_built"] += int(result.order)
        elif key == "report.report_json":
            self.counts["report_bytes"] += len(result.encode("utf-8"))
        elif key == "verify.run_gamma_battery":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["trials"] += int(bound.arguments["trials"])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._before(key, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_time[key] += duration - frame[1]
                tracer.calls[key] += 1
                if key in HEADLINE:
                    tracer.request_calls[tracer.request][key] += 1
                tracer.spans.append((span_id, key, start, end, parent,
                                     tracer.request))
            tracer._after(key, fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function in every namespace binding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "centrex" or name.startswith("centrex.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules["centrex." + layer]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, "%s.%s" % (layer, name))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules["centrex." + layer], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth),
                                          "%s.%s" % (layer, meth)))

    # -- per-round results ----------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of the round since ``reset_round``."""
        st, calls, cnt = self.self_time, self.calls, self.counts

        def layer_self(layer):
            return sum(v for k, v in st.items()
                       if k.split(".", 1)[0] == layer)

        snf_calls = calls["cohomology.smith_normal_form"]
        out = {"%s.self_s" % layer: layer_self(layer) for layer in LAYERS}
        out.update({
            "cohomology.snf_s": st["cohomology.smith_normal_form"],
            "cohomology.snf_calls": snf_calls,
            "cohomology.snf_distinct_ratio":
                len(self._snf_seen) / snf_calls if snf_calls else 0.0,
            "cohomology.snf_cells": cnt["snf_cells"],
            "cohomology.delta_matrix_bytes": cnt["delta_matrix_bytes"],
            "cohomology.oracle_s": sum(st["cohomology." + f] for f in ORACLE),
            "cohomology.oracle_cochains": cnt["oracle_cochains"],
            "extensions.builds": calls["extensions.build_extension"],
            "extensions.elements_built": cnt["elements_built"],
            "groups.fingerprint_calls": calls["groups.table_fingerprint"],
            "cochains.delta_calls": calls["cochains.delta"],
            "report.bytes": cnt["report_bytes"],
            "cli.requests": calls["cli.main"],
            "su.validations": (calls["su.unitary_residual"]
                               + calls["su.algebra_residual"]),
            "su.exp_stack_calls": calls["su.exp_stack"],
            "loops.synth_calls": (calls["loops.random_smooth_loop"]
                                  + calls["loops.random_smooth_tangent"]),
            "loops.spectral_derivative_calls":
                calls["loops.spectral_derivative"],
            "forms.d_alpha_s": st["forms.d_alpha_numeric"],
            "forms.d_R_s": st["forms.d_R_numeric"],
            "forms.eval_R_calls": calls["forms.eval_R"],
            "forms.eval_alpha_calls": calls["forms.eval_alpha"],
            "verify.trials": cnt["trials"],
            "periods.tangents_at_calls": calls["periods.tangents_at"],
        })
        return out

    def headline(self, request):
        """Headline call counts of one request in the last round."""
        calls = self.request_calls[request]
        parts = ["%s=%d" % (k.split(".", 1)[1], calls[k])
                 for k in HEADLINE if calls[k]]
        if calls["cohomology.smith_normal_form"]:
            parts.append("snf_distinct=%d" % sum(
                1 for r, _ in self._snf_seen if r == request))
        return " ".join(parts)

    def attributed_s(self):
        return sum(self.self_time.values())

    def write(self, path, header):
        """Write the recorded spans as gzipped JSON lines."""
        fields = ("id", "name", "start", "end", "parent", "request")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=fields)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
