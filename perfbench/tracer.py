"""Run one fbmlab CLI command in this process with spans around every layer.

    python3 perfbench/tracer.py SPANS.json <fbmlab command and flags...>

Every public function of each fbmlab module, plus the layer-boundary
methods in METHODS and the pool fan-out helper, is wrapped in a span.
Modules import names directly (``from .sampler import sample_fbm``), so
each module-level binding of a wrapped function, and each function held in
a module-level dict such as the CLI command table, is replaced by the
wrapper.  Spans are aggregated in memory per name (calls, inclusive and
self time, items of work) and written to SPANS.json when the command ends.
The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

from fbmlab import analysis, cli, experiments, kernel, oracle, quadrature, sampler, variations

MODULES = (kernel, sampler, variations, oracle, quadrature, analysis, experiments, cli)

# span name -> (owner, attribute) for boundaries that are not public
# module-level functions; one that no longer exists is skipped
METHODS = {
    "sampler.normals": (sampler.SeedPolicy, "normals"),
    "oracle.limit_draw": (oracle.LimitSample, "draw"),
    "cli.emit": (cli.Emitter, "emit"),
    "experiments._pmap": (experiments, "_pmap"),
}

# span name -> items of work done by one call, from (args, result); a call
# whose arguments no longer fit counts 0 items
ITEMS = {
    "sampler.normals": lambda args, out: len(out),
    "sampler.sample_fbm": lambda args, out: out.grid.m,
    "kernel.cov_r": lambda args, out: int(np.size(out)),
    "cli.emit": lambda args, out: len(args[2]),
    # a fan-out over more than one chunk starts a process pool at --workers >= 2
    "experiments._pmap": lambda args, out: int(len(args[1]) > 1),
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
        self.stack = []  # (name, layer, [seconds covered by child spans])
        self.open_layers = defaultdict(int)
        self.layer_inclusive_s = defaultdict(float)
        # items of a span credited to each enclosing layer and to its parent span
        self.items_under_layer = defaultdict(lambda: defaultdict(int))
        self.items_under_parent = defaultdict(lambda: defaultdict(int))
        self._live_paths = {}

    def new_paths(self, args, out) -> int:
        """Paths not seen before among the arguments (ids of live paths only)."""
        fresh = 0
        for arg in args:
            key = id(arg)
            if isinstance(arg, sampler.Path) and key not in self._live_paths:
                self._live_paths[key] = weakref.ref(
                    arg, lambda _, key=key: self._live_paths.pop(key, None)
                )
                fresh += 1
        return fresh

    def wrap(self, name: str, fn, items=None):
        layer = name.partition(".")[0]
        stats = self.spans[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self.stack.append((name, layer, children))
            self.open_layers[layer] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.open_layers[layer] -= 1
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - children[0]
                if self.stack:
                    self.stack[-1][2][0] += elapsed
                if not self.open_layers[layer]:
                    self.layer_inclusive_s[layer] += elapsed
            if items is not None:
                try:
                    count = items(args, out)
                except (AttributeError, IndexError, TypeError):
                    count = 0
                stats["items"] += count
                for outer in {frame[1] for frame in self.stack}:
                    self.items_under_layer[outer][name] += count
                if self.stack:
                    self.items_under_parent[self.stack[-1][0]][name] += count
            return out

        return traced

    def install(self) -> None:
        wrapped = {}
        for module in MODULES:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    count = self.new_paths if short == "variations" else ITEMS.get(name)
                    wrapped[obj] = self.wrap(name, obj, count)
        for name, (owner, attr) in METHODS.items():
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, ITEMS.get(name))))
            else:
                wrapped[raw] = self.wrap(name, raw, ITEMS.get(name))
                setattr(owner, attr, wrapped[raw])
        for module_name, module in list(sys.modules.items()):
            if module_name != "fbmlab" and not module_name.startswith("fbmlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def as_dict(self) -> dict:
        return {
            "spans": dict(self.spans),
            "layer_inclusive_s": dict(self.layer_inclusive_s),
            "items_under_layer": {k: dict(v) for k, v in self.items_under_layer.items()},
            "items_under_parent": {k: dict(v) for k, v in self.items_under_parent.items()},
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.as_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
