"""Outside-in tracing: wrap the public functions of each balpair module.

The program is not changed. `Tracer.install` replaces each target function
with a timing wrapper at every place it can be looked up: the defining
module, every `balpair` module that imported the name by value (`from
.linalg import perron_data` binds a second reference in `verdict`,
`equivalence` and `cli`), and the package itself. Methods are wrapped on
their class, together with any alias of the same function. `balpair.verdict`
is the re-exported `verdict()` function, so modules are always taken from
`sys.modules`.

Span targets keep one span per call (name, start, end, parent span,
analysis id) in memory. Leaf targets are called once per scan step or
interval refinement; they are timed and counted like spans but keep no span
record, so that tracing them stays cheap in time and memory.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("substitution", "polynomial", "linalg", "numberfield",
          "equivalence", "engine", "verdict", "report")

# (module, attribute path, leaf?)
TARGETS = (
    ("substitution", "parse_substitution", False),
    ("substitution", "fixed_point_stream", False),
    ("substitution", "admissible_prefixes", False),
    ("substitution", "Substitution.is_primitive", False),
    ("substitution", "Substitution.transition_matrix", True),
    ("substitution", "Substitution.apply", True),
    ("polynomial", "factor_poly", False),
    ("linalg", "char_poly", False),
    ("linalg", "perron_data", False),
    ("linalg", "left_pf_eigenvector", False),
    ("linalg", "classify_spectrum", False),
    ("numberfield", "NumberField.refine_once", True),
    ("equivalence", "resolve_length_vector", False),
    ("equivalence", "letter_equiv_classes", False),
    ("equivalence", "Relation.plain", False),
    ("equivalence", "Relation.letter_classes", False),
    ("equivalence", "Relation.generalized", False),
    ("equivalence", "Relation.sign_of_scaled", True),
    ("engine", "run_bpa", False),
    ("engine", "initial_pairs", False),
    ("engine", "children", False),
    ("engine", "pair_graph", False),
    ("engine", "coincidence_analysis", False),
    ("verdict", "analyze", False),
    ("verdict", "verdict", False),
    ("report", "render_json", False),
)

RELATION_BUILDERS = ("equivalence.Relation.plain",
                     "equivalence.Relation.letter_classes",
                     "equivalence.Relation.generalized")


class Tracer:
    """Spans and per-call counters for one traced pass."""

    def __init__(self):
        self.names = []  # span name table; spans refer to it by index
        self.spans = []  # [name index, start, end, parent span, analysis id]
        self.analysis_id = None
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost calls only
        self.layer_self = defaultdict(float)
        self.self_by_name = defaultdict(float)
        self.letters_scanned = 0
        self.children_recomputed = 0
        self._stack = []  # [name, span index, time covered by children]
        self._depth = defaultdict(int)
        self._patches = []
        self._leaf_totals = {}  # name -> [layer, calls, inclusive, own]

    # -- spans ---------------------------------------------------------------

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span; layer None marks the benchmark's own span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append([self._name_index(name), 0.0, 0.0,
                           parent[1] if parent else None, self.analysis_id])
        frame = [name, index, 0.0]
        stack.append(frame)
        self.calls[name] += 1
        self._depth[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[name] -= 1
            duration = end - start
            self.spans[index][1:3] = [start, end]
            if parent is not None:
                parent[2] += duration
            own = duration - frame[2]
            self.self_by_name[name] += own
            if layer is not None:
                self.layer_self[layer] += own
            if not self._depth[name]:
                self.inclusive[name] += duration

    def _leaf(self, name, layer, fn):
        """A lean wrapper for hot calls: no span record, plain counters.

        Leaf targets do not call themselves, so every call is outermost.
        """
        stack = self._stack
        totals = self._leaf_totals[name] = [layer, 0, 0.0, 0.0]

        def wrapper(*args, **kwargs):
            frame = [name, None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                totals[1] += 1
                totals[2] += duration
                totals[3] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
        return wrapper

    def _wrap(self, name, layer, leaf, fn):
        tracer = self
        if leaf:
            wrapper = self._leaf(name, layer, fn)
        elif name == "engine.children":
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                if stack and stack[-1][0] == "engine.pair_graph":
                    tracer.children_recomputed += 1
                kids = tracer.span(name, layer, fn, *args, **kwargs)
                tracer.letters_scanned += sum(len(p.top) + len(p.bottom)
                                              for p in kids)
                return kids
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, layer, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every target at every lookup site; `uninstall` undoes it."""
        for layer in LAYERS:
            importlib.import_module(f"balpair.{layer}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "balpair" or key.startswith("balpair.")]
        for module_name, path, leaf in TARGETS:
            module = sys.modules[f"balpair.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                static = isinstance(raw, staticmethod)
                wrapper = self._wrap(name, module_name, leaf,
                                     raw.__func__ if static else raw)
                # the attribute and any alias of it on the class
                sites, original = [cls], raw
                if static:
                    wrapper = staticmethod(wrapper)
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, module_name, leaf, original)
                sites = modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._set(site, key, value, wrapper)

    def _set(self, owner, key, old, new):
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self):
        """Per-layer metrics of the traced pass (see BENCHMARK.json)."""
        for name, (layer, count, inclusive, own) in self._leaf_totals.items():
            self.calls[name] += count
            self.inclusive[name] += inclusive
            self.self_by_name[name] += own
            self.layer_self[layer] += own
        self._leaf_totals.clear()
        calls, inclusive = self.calls, self.inclusive
        children = calls["engine.children"]
        out = {
            "polynomial.factor_calls": calls["polynomial.factor_poly"],
            "polynomial.factor_s": inclusive["polynomial.factor_poly"],
            "linalg.perron_calls": calls["linalg.perron_data"],
            "linalg.perron_s": inclusive["linalg.perron_data"],
            "linalg.classify_s": inclusive["linalg.classify_spectrum"],
            "linalg.eigvec_s": inclusive["linalg.left_pf_eigenvector"],
            "linalg.char_poly_calls": calls["linalg.char_poly"],
            "numberfield.refine_calls":
                calls["numberfield.NumberField.refine_once"],
            "equivalence.relation_builds": sum(calls[n]
                                               for n in RELATION_BUILDERS),
            "equivalence.relation_build_s": self._outermost(
                RELATION_BUILDERS),
            "equivalence.sign_calls":
                calls["equivalence.Relation.sign_of_scaled"],
            "equivalence.sign_s":
                inclusive["equivalence.Relation.sign_of_scaled"],
            "engine.initial_split_calls": calls["engine.initial_pairs"],
            "engine.initial_split_s": inclusive["engine.initial_pairs"],
            "engine.children_calls": children,
            "engine.children_s": inclusive["engine.children"],
            "engine.letters_scanned": self.letters_scanned,
            "engine.children_recomputed_share":
                self.children_recomputed / children if children else 0.0,
            "engine.pair_graph_s": inclusive["engine.pair_graph"],
            "engine.coincidence_s": inclusive["engine.coincidence_analysis"],
            "engine.run_bpa_calls": calls["engine.run_bpa"],
            "verdict.analyze_self_s": self.self_by_name["verdict.analyze"],
            "report.render_json_s": inclusive["report.render_json"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out

    def _outermost(self, names):
        """Wall time covered by spans of these names, nested ones once."""
        wanted = {self.names.index(n) for n in names if n in self.names}
        total = 0.0
        for name_index, start, end, parent, _aid in self.spans:
            if name_index in wanted and not self._inside(parent, wanted):
                total += end - start
        return total

    def _inside(self, span_index, wanted):
        while span_index is not None:
            name_index, _s, _e, parent, _aid = self.spans[span_index]
            if name_index in wanted:
                return True
            span_index = parent
        return False
