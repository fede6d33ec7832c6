"""Run one swapsets command with its layers timed, for the traced passes.

    python tracechild.py TRACE.json <swapsets arguments...>

Before calling `swapsets.cli.run`, this wraps with a span recorder:

* every module-level swapsets function whose name has no leading
  underscore, in every swapsets module namespace that binds it, so calls
  between modules go through the wrapper too;
* `Graph.__init__`;
* the `to_json_dict`/`from_json_dict` methods and `parse_graph`/
  `format_graph`, which make up the "serialization" layer.

A function's layer is its module's name.  Graph accessors such as
`neighbors` run millions of times per pass and are left alone.  Spans are
aggregated per function in memory (calls, self time, outermost inclusive
time) and written to TRACE.json when the command returns.  Work done while
a caller iterates a generator counts toward the caller.  Stdout is left to
the command, byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import types

SERIALIZATION = {"parse_graph", "format_graph", "to_json_dict", "from_json_dict"}


class Stat:
    __slots__ = ("layer", "calls", "self_s", "incl_s", "depth")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.graphs_built = 0
        self.vertices_built = 0
        self.classes: dict[int, int] = {}
        self.solved: set[int] = set()
        self.budget_exceeded = 0
        self.product_vertices = 0
        # Time covered by child spans, one slot per open span plus the root.
        self._child_time = [0.0]

    def wrap(self, fn, name: str, layer: str, hook=None):
        stat = self.stats.setdefault(name, Stat(layer))
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - child_time.pop()
                child_time[-1] += elapsed
                if not stat.depth:
                    stat.incl_s += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # counters that need a call's arguments or result

    def _graph_built(self, args, kwargs, _result):
        self.graphs_built += 1
        self.vertices_built += args[1] if len(args) > 1 else kwargs["n"]

    def _enumerated(self, args, kwargs, result):
        self.classes[args[0] if args else kwargs["n"]] = len(result)

    def _solved(self, args, kwargs, result):
        self.solved.add(hash(args[0] if args else kwargs["g"]))
        self._searched(args, kwargs, result)

    def _searched(self, _args, _kwargs, result):
        if result.status == "budget_exceeded":
            self.budget_exceeded += 1

    def _product(self, _args, _kwargs, result):
        self.product_vertices += result.n

    def install(self) -> None:
        import swapsets
        from swapsets.graph_core import Graph

        modules = [importlib.import_module(f"swapsets.{m.name}")
                   for m in pkgutil.iter_modules(swapsets.__path__)]
        hooks = {
            "enumerate_connected_graphs": self._enumerated,
            "dd_m_exact": self._solved,
            "swap_pair_below": self._searched,
            "cartesian_product": self._product,
        }
        wrapped = {}
        for mod in [swapsets, *modules]:
            for name, obj in list(vars(mod).items()):
                if _is_public_function(obj):
                    if id(obj) not in wrapped:
                        module = obj.__module__.rsplit(".", 1)[-1]
                        layer = "serialization" if obj.__name__ in SERIALIZATION else module
                        wrapped[id(obj)] = self.wrap(obj, f"{module}.{obj.__name__}", layer,
                                                     hooks.get(obj.__name__))
                    setattr(mod, name, wrapped[id(obj)])
        for mod in modules:
            module = mod.__name__.rsplit(".", 1)[-1]
            for cls in vars(mod).values():
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                    continue
                for attr in ("to_json_dict", "from_json_dict"):
                    raw = vars(cls).get(attr)
                    name = f"{module}.{cls.__name__}.{attr}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, "serialization")))
                    elif isinstance(raw, types.FunctionType):
                        setattr(cls, attr, self.wrap(raw, name, "serialization"))
        Graph.__init__ = self.wrap(Graph.__init__, "graph_core.Graph.__init__", "graph_core",
                                   self._graph_built)

    def report(self, imported_at: float) -> dict:
        return {
            "imported_at": imported_at,
            "functions": {name: {"layer": s.layer, "calls": s.calls, "self_s": s.self_s,
                                 "incl_s": s.incl_s}
                          for name, s in self.stats.items() if s.calls},
            "graphs_built": self.graphs_built,
            "vertices_built": self.vertices_built,
            "classes": sum(self.classes.values()),
            "solved": sorted(self.solved),
            "budget_exceeded": self.budget_exceeded,
            "product_vertices": self.product_vertices,
        }


def _is_public_function(obj) -> bool:
    return (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")) \
        and getattr(obj, "__module__", "").startswith("swapsets") \
        and not obj.__name__.startswith("_")


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    import swapsets.cli

    imported_at = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        return swapsets.cli.run(cli_argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(imported_at), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
