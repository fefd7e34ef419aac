"""Per-layer spans recorded from outside graphprod.

The tracer wraps the public functions in ``TARGETS`` in every graphprod
module namespace that binds them, so a call from one layer into another goes
through the wrapper too.  A span's self time is its duration minus the
durations of the spans it directly contains.  Spans are aggregated as they
close (calls and self time per function), so memory stays flat however many
calls a run makes.

Function objects stored inside containers at import time, such as the
predicates in ``verify.SAMPLE_PREDICATES``, cannot be reached by patching a
namespace; :meth:`Tracer.unreachable` lists them, and their time lands in
the self time of whichever traced caller invokes them.
"""

from __future__ import annotations

import time

LAYERS = ("graphs", "structure", "iso", "words", "classify", "verify", "cli")

TARGETS = {
    "graphs": ("girth", "contains_square", "components", "from_graph6",
               "to_graph6"),
    "structure": ("maximal_join_subgraphs", "collapsible_subgraphs",
                  "is_strongly_reduced", "is_clique_reduced",
                  "transvection_structure", "is_transvection_free",
                  "join_decomposition", "domination_classes",
                  "has_separating_star", "internal_vertices"),
    "iso": ("isomorphism", "automorphism_group"),
    "words": ("reduce_word", "multiply", "invert", "support_and_boundary",
              "parabolic_membership", "split_lcr", "product_set_membership",
              "enumerate_words", "parabolic_ball",
              "parabolic_intersection_check"),
    "classify": ("classify", "check_hypotheses", "symmetry",
                 "labeled_isomorphism"),
    "verify": ("enumerate_graphs", "canonical_key", "check_lemma",
               "sample_er", "random_graph"),
    "cli": ("main",),
}

# work counts taken from return values: (layer, function) -> (name, size of result)
COUNTERS = {
    ("words", "enumerate_words"): ("elements", lambda r: len(r.words)),
    ("words", "parabolic_ball"): ("elements", len),
    ("verify", "enumerate_graphs"): ("classes", lambda r: len(r.graphs)),
    ("verify", "sample_er"): ("trials", lambda r: r.trials),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    out = []
    for layer, names in TARGETS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count"))
            out.append((f"{layer}.{name}.self_s", "s"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s"))
        out.append((f"{layer}.failed", "count"))
    for (layer, name), (count, _) in COUNTERS.items():
        out.append((f"{layer}.{name}.{count}", "count"))
    out.append(("bench.self_s", "s"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Installs span wrappers into the graphprod modules and removes them."""

    def __init__(self, modules: dict):
        # modules: the package and its submodules, keyed by short name
        self.modules = modules
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack: list[list] = []  # [key, time covered by child spans]
        self._patches: list[tuple] = []
        self._originals = {}
        for layer, names in TARGETS.items():
            for name in names:
                key = (layer, name)
                self._originals[key] = getattr(modules[layer], name)
                self.calls[key] = 0
                self.self_s[key] = 0.0
        for key, (count, _) in COUNTERS.items():
            self.counts[key + (count,)] = 0

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        counter = COUNTERS.get(key)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            # nested calls of the same function (the catalog recursion) are
            # lookups of work the outer call reports
            if counter is not None and not any(f[0] == key for f in stack):
                counts[key + (counter[0],)] += counter[1](result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key[1])
        return span

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(key, fn)
                    for key, fn in self._originals.items()}
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:  # originals stay alive, so ids are unique
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def unreachable(self) -> list[str]:
        """Module-level containers that hold a traced function directly."""
        out = []
        targets = {id(fn): key for key, fn in self._originals.items()}
        for mod in self.modules.values():
            for attr, val in vars(mod).items():
                if isinstance(val, dict):
                    items = val.items()
                elif isinstance(val, (list, tuple)):
                    items = enumerate(val)
                else:
                    continue
                for k, item in items:
                    if id(item) in targets:
                        layer, name = targets[id(item)]
                        out.append(f"{mod.__name__}.{attr}[{k!r}] -> "
                                   f"{layer}.{name}")
        return sorted(out)

    def begin_op(self) -> None:
        """Open the benchmark's own span around one op."""
        self._stack.append([("bench", "op"), 0.0])

    def end_op(self) -> float:
        """Close it; returns the time its top-level graphprod spans covered."""
        return self._stack.pop()[1]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), secs in self.self_s.items():
            out[layer] += secs
        return out

    def metrics(self) -> dict[str, float]:
        out = {}
        for (layer, name), n in self.calls.items():
            out[f"{layer}.{name}.calls"] = n
            out[f"{layer}.{name}.self_s"] = self.self_s[(layer, name)]
        for layer, secs in self.layer_self().items():
            out[f"{layer}.self_s"] = secs
        for (layer, name, count), n in self.counts.items():
            out[f"{layer}.{name}.{count}"] = n
        return out
