"""Per-layer spans around couplingkit's public callables, installed from outside.

The package is never edited.  :meth:`Tracer.install` replaces each public
callable listed in :data:`LAYERS` at every module attribute that holds it
(``cli.coupling_maximal`` and ``audit.coupling_maximal`` alike), and
replaces constructors and methods on their classes, so every caller
reaches the wrapper.  :meth:`Tracer.uninstall` puts the originals back.

Spans live in memory with parent links.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# layer -> callables, as "module:attribute" or "module:Class.method".
LAYERS = {
    "cli": ["cli:main"],
    "jsonio.parse": ["jsonio:load_distribution", "jsonio:load_pmf", "jsonio:load_coupling_matrix",
                     "jsonio:load_coupling4_blocks", "jsonio:detect_coupling_kind"],
    "jsonio.serialize": ["jsonio:coupling_to_obj", "jsonio:coupling4_to_obj", "jsonio:dump_json",
                         "coupling:LemmaAudit.to_json_dict", "audit:EpsilonAuditReport.to_json_dict",
                         "transport:DualCertificate.to_json_dict"],
    "rational.parse": ["rational:parse_rational"],
    "distributions.validate": ["distributions:Pmf.__init__", "distributions:Pmf2.__init__"],
    "distributions.alphabet": ["distributions:Alphabet.__init__", "distributions:Alphabet.product"],
    "metrics.vdist": ["metrics:vdist_halfsum", "multidim:vdist2", "metrics:upper_set"],
    "coupling.build": ["coupling:coupling_independent", "coupling:coupling_maximal", "coupling:residuals"],
    "coupling.validate": ["coupling:Coupling.__init__"],
    "coupling.lemma": ["coupling:lemma_audit", "coupling:mismatch_prob"],
    "multidim": ["multidim:coupling4_maximal", "multidim:coupling4_independent",
                 "multidim:coupling4_constrained", "multidim:Coupling4.__init__",
                 "multidim:Coupling4.from_tensor", "multidim:mismatch_components"],
    "transport.solve": ["transport:solve_transport", "transport:lp_min_mismatch",
                        "transport:TransportProblem.__init__", "transport:TransportProblem.mismatch"],
    "transport.certify": ["transport:certify"],
    "audit.epsilon_audit": ["audit:epsilon_audit"],
}

PACKAGE = "couplingkit"
COUNTERS = ("coupling.entries", "rational.denom_bits_max")


def _count_entries(counters, args, kwargs, result):
    left = args[2] if len(args) > 2 else kwargs["left"]
    counters["coupling.entries"] += len(left.alphabet) ** 2


def _max_denominator_bits(counters, args, kwargs, result):
    bits = result.denominator.bit_length()
    if bits > counters["rational.denom_bits_max"]:
        counters["rational.denom_bits_max"] = bits


_OBSERVERS = {
    "coupling:Coupling.__init__": _count_entries,
    "rational:parse_rational": _max_denominator_bits,
}


class Tracer:
    """Records spans and counters while installed; one operation at a time."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start_ns, end_ns, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper) for every binding to replace.
        self._bindings: list[tuple[object, str, object, object]] = []
        for name in ("cli", "jsonio", "tables"):
            importlib.import_module(f"{PACKAGE}.{name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(layer, raw.__func__, target))
                    else:
                        wrapper = self._wrap(layer, raw, target)
                    self._bindings.append((cls, method, raw, wrapper))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, target)
                self._bindings += [(mod, name, original, wrapper) for mod in modules
                                   for name, value in vars(mod).items() if value is original]

    def _wrap(self, layer: str, fn, target: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = _OBSERVERS.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def take(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Per-layer [self_ns, calls] and counters since the last take; then reset."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, list[int]] = {}
        for idx, (layer, start, end, _) in enumerate(self.spans):
            agg = layers.setdefault(layer, [0, 0])
            agg[0] += end - start - child[idx]
            agg[1] += 1
        counters = dict(self.counters)
        self.spans.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        return layers, counters
