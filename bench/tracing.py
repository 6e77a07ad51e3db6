"""The traced run: wrappers around nonarch's public functions.

Nothing under ``src/`` is edited.  Each wrapper replaces the original
wherever a caller looks the name up: the attribute of every ``nonarch``
module that holds the original object, and the class attribute for
methods.  Coarse calls (kernels, parsers, the CLI) become spans; the
fine-grained arithmetic of ``Val``, ``FieldElement`` (per base-field
model) and ``LaurentPoly`` is aggregated into counters and timers.

Self time is a call's duration minus the time its traced callees cover,
so each layer's ``self_s`` is the time spent in its own code.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

# (module, function) -> span name; the layer is the module name.
SPAN_FUNCTIONS = {
    "cli": ("run",),
    "expr": ("parse_poly", "poly_to_expr"),
    "lattices": ("smith", "det_val", "content", "semilattice_index", "adic_norm"),
    "lp": ("lp_min",),
    "tropical": ("tropicalize", "trop_eval", "min_locus", "polytope_vertices",
                 "prune_never_minimal", "retract", "semistable_skeleton"),
    "forms": ("pullback", "kahler_norm_at", "tame_certificate", "differential"),
    "weights": ("compare", "log_different", "different_kummer_ramified", "weight_norm",
                "kahler_norm_divisorial"),
}
COUNTED_FUNCTIONS = {
    "values": ("vmin", "vsum"),
    "laurent": ("gauss_val", "gauss_val_rational", "log_derivative"),
}
FIELD_KINDS = ("trivial-q", "p-adic-q", "pi-adic-q", "pi-adic-fp")
SUBCOMMANDS = ("eval-norm", "trop", "max-locus", "smith", "content", "index", "adic",
               "weight-compare", "retract", "tame-check", "grid")


class Tracer:
    def __init__(self):
        self.frames = []        # open calls: [time covered by traced callees]
        self.open_spans = []    # ids of open spans
        self.spans = []         # [op, name, layer, start, end, parent, self]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.op = 0
        self.active = True      # off while the benchmark checks an output
        self._undo = []         # (owner, attribute, original) of every swap

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, on_exit):
        frames = self.frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                on_exit(args, result, start, end, dur - frame[0])
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def counter(self, fn, key_of, post=None):
        calls, self_s = self.calls, self.self_s

        def on_exit(args, result, start, end, own):
            if not self.active:
                return
            key = key_of(args)
            calls[key] += 1
            self_s[key] += own
            if post is not None:
                post(args, result)
        return self._timed(fn, on_exit)

    def span(self, fn, name, layer, key_of=None, post=None):
        spans, open_spans = self.spans, self.open_spans
        calls, self_s = self.calls, self.self_s

        def on_exit(args, result, start, end, own):
            sid = open_spans.pop()
            if not self.active:
                spans[sid] = None
                return
            parent = open_spans[-1] if open_spans else None
            key = key_of(args) if key_of else name
            spans[sid] = [self.op, key, layer, start, end, parent, own]
            calls[layer] += 1
            self_s[layer] += own
            if post is not None:
                post(args, result)

        timed = self._timed(fn, on_exit)

        def opener(*args, **kwargs):
            open_spans.append(len(spans))
            spans.append(None)
            return timed(*args, **kwargs)
        opener.__wrapped__ = fn
        return opener

    # -- installation -----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Put every original back, so rounds can alternate traced and not."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def install(self, nx):
        modules = [getattr(nx, name) for name in nx.MODULES] + [nx.package]

        def swap(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

        keys = {"smith": _lattice_key, "run": _cli_key}
        posts = {"pullback": self._count_pullback}
        for layer, names in SPAN_FUNCTIONS.items():
            mod = getattr(nx, layer)
            for name in names:
                fn = getattr(mod, name)
                swap(fn, self.span(fn, name, layer, keys.get(name), posts.get(name)))
        for layer, names in COUNTED_FUNCTIONS.items():
            mod = getattr(nx, layer)
            for name in names:
                key = "laurent.gauss_val" if name == "gauss_val" else layer
                swap(getattr(mod, name), self.counter(getattr(mod, name), _const(key)))

        pm = nx.lattices.PresentationMatrix
        self._set(pm, "__init__", self.span(pm.__init__, "PresentationMatrix", "lattices"))
        self._wrap_class(nx.values.Val, _const("values"))
        self._wrap_class(nx.fields.FieldElement, _field_key)
        self._wrap_class(nx.fields.BaseFieldModel, _field_key)
        self._wrap_class(nx.laurent.LaurentPoly, _const("laurent"),
                         {"__mul__": self._count_mul})
        return self

    def _count_pullback(self, args, result):
        if result is not None:
            self.extra["forms.pullback_terms_out"] += sum(
                len(c.terms) for c in result.form.coeffs.values())

    def _count_mul(self, args, result):
        self.extra["laurent.mul_calls"] += 1
        if result is not None:
            self.extra["laurent.mul_terms_out"] += len(result.terms)

    def _wrap_class(self, cls, key_of, posts=None):
        """Wrap the public methods, dunders and properties of a class."""
        posts = posts or {}
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            if name in ("__repr__", "__str__", "__new__", "__slots__", "__module__", "__doc__",
                        "__dict__", "__weakref__", "__annotations__", "__firstlineno__"):
                continue
            if isinstance(value, property):
                self._set(cls, name, property(self.counter(value.fget, key_of)))
            elif isinstance(value, classmethod):
                wrapped = self.counter(value.__func__, _skip_first(key_of))
                self._set(cls, name, classmethod(wrapped))
            elif callable(value) and not isinstance(value, type):
                self._set(cls, name, self.counter(value, key_of, posts.get(name)))

    # -- metrics ----------------------------------------------------------------

    def per_layer(self, rounds):
        """Every per-layer metric, per round of the workload."""
        r = float(rounds)
        calls, own = self.calls, self.self_s
        by_key = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if s is None:   # a span closed while tracing was paused
                continue
            agg = by_key[s[1]]
            agg[0] += 1
            agg[1] += s[4] - s[3]
        self._by_key = by_key
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("values.calls", calls["values"] / r, "count")
        put("values.self_s", own["values"] / r, "s")
        for kind in FIELD_KINDS:
            put(f"fields.{kind}.calls", calls["fields." + kind] / r, "count")
            put(f"fields.{kind}.self_s", own["fields." + kind] / r, "s")
        put("laurent.mul_calls", self.extra["laurent.mul_calls"] / r, "count")
        put("laurent.mul_terms_out", self.extra["laurent.mul_terms_out"] / r, "count")
        put("laurent.gauss_val_calls", calls["laurent.gauss_val"] / r, "count")
        put("laurent.self_s", (own["laurent"] + own["laurent.gauss_val"]) / r, "s")
        put("expr.parse_calls", self._count("parse_poly") / r, "count")
        put("expr.self_s", own["expr"] / r, "s")

        put("lattices.smith_calls", sum(self._count(k) for k in _SMITH_KEYS) / r, "count")
        put("lattices.det_val_calls", self._count("det_val") / r, "count")
        for key in _SMITH_KEYS:
            put(f"lattices.{key.split(':')[1]}.smith_s", self._total(key) / r, "s")
        put("lattices.det_val_s", self._total("det_val") / r, "s")
        put("lattices.presentation_s", self._total("PresentationMatrix") / r, "s")
        put("lattices.self_s", own["lattices"] / r, "s")

        loci = self._count("min_locus")
        put("lp.calls", self._count("lp_min") / r, "count")
        put("lp.calls_per_locus", self._lp_under_locus() / loci if loci else 0.0, "ratio")
        put("lp.self_s", own["lp"] / r, "s")

        put("tropical.min_locus_calls", loci / r, "count")
        put("tropical.min_locus_s", self._total("min_locus") / r, "s")
        put("tropical.vertices_calls", self._count("polytope_vertices") / r, "count")
        put("tropical.vertices_s", self._total("polytope_vertices") / r, "s")
        put("tropical.prune_s", self._total("prune_never_minimal") / r, "s")
        put("tropical.self_s", own["tropical"] / r, "s")

        put("forms.pullback_calls", self._count("pullback") / r, "count")
        put("forms.pullback_s", self._total("pullback") / r, "s")
        put("forms.pullback_terms_out", self.extra["forms.pullback_terms_out"] / r, "count")
        put("forms.kahler_norm_calls", self._count("kahler_norm_at") / r, "count")
        put("forms.kahler_norm_s", self._total("kahler_norm_at") / r, "s")
        put("forms.self_s", own["forms"] / r, "s")

        put("weights.compare_s", self._total("compare") / r, "s")
        put("weights.log_different_s", self._total("log_different") / r, "s")

        put("cli.run_calls", calls["cli"] / r, "count")
        put("cli.self_s", own["cli"] / r, "s")
        for sub in SUBCOMMANDS:
            times = [(s[4] - s[3]) * 1e3 for s in self.spans if s and s[1] == "cli:" + sub]
            put(f"cli.{sub}.ms_p50", statistics.median(times) if times else 0.0, "ms")
        return out

    def _count(self, name):
        return self._by_key[name][0] if name in self._by_key else 0

    def _total(self, name):
        return self._by_key[name][1] if name in self._by_key else 0.0

    def _lp_under_locus(self):
        spans = self.spans
        hits = 0
        for s in spans:
            if s is None or s[1] != "lp_min":
                continue
            parent = s[5]
            while parent is not None:
                if spans[parent][1] == "min_locus":
                    hits += 1
                    break
                parent = spans[parent][5]
        return hits

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta,
                       "fields": ["op", "name", "layer", "start", "end", "parent", "self"],
                       "spans": self.spans}, handle)


_SMITH_KEYS = ("smith:trivial-q", "smith:p-adic-q", "smith:pi-adic-q", "smith:pi-adic-fp",
               "smith:gauss")


def _const(key):
    return lambda args: key


def _skip_first(key_of):
    return lambda args: key_of(args[1:])


def _field_key(args):
    obj = args[0] if args else None
    kind = getattr(obj, "kind", None) or getattr(getattr(obj, "model", None), "kind", "unknown")
    return "fields." + kind


def _lattice_key(args):
    pres = args[0]
    return "smith:gauss" if pres.nvars else "smith:" + pres.model.kind


def _cli_key(args):
    argv = args[0] if args else []
    return "cli:" + (argv[0] if argv else "")
