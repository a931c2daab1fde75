"""Per-layer observation for the traced and profiled runs.

:class:`SpanTracer` wraps public methods at each layer's boundary and
records one span per call: name, layer, parent span, start and end.
Much of each layer's work runs in callbacks that ``Simulator.run``
dispatches, which no span around a public method sees, so
:func:`profile_layer_self` also attributes a ``cProfile`` run's self
time to layers by module.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import SparkSim
from repro.core.scheduler import StageRunner
from repro.net import Fabric
from repro.obs import parse_key
from repro.serve import FairSharePolicy, SlotPool
from repro.sim import FluidPipe, Simulator
from repro.storage import LocalVolume

#: Layer of each repro module (``package/module``), named after the repo.
MODULE_LAYER = {
    **{f"sim/{m}": "sim"
       for m in ("core", "events", "process", "resources", "simtime")},
    **{f"sim/{m}": "sim.fluid" for m in ("fluid", "fastdrain", "flowarray")},
    **{f"net/{m}": "net" for m in ("fabric", "fastalloc")},
    **{f"core/{m}": "core.scheduler"
       for m in ("scheduler", "policies", "elb", "cad", "speculation",
                 "memory", "volumes")},
    **{f"core/{m}": "core.engine"
       for m in ("engine", "shuffle", "combine", "rdd", "task", "dag")},
}
PACKAGE_LAYER = {"storage": "storage", "serve": "serve", "obs": "obs"}
LAYERS = ("sim", "sim.fluid", "net", "core.scheduler", "core.engine",
          "storage", "serve", "obs", "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(path: str) -> Optional[str]:
    """Layer of a source file; ``None`` for code outside repro and the
    benchmark (numpy, builtins), whose time belongs to its callers."""
    if os.path.dirname(os.path.abspath(path)) == _BENCH_DIR:
        return "other"
    path = path.replace(os.sep, "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    module = path[cut + len("/repro/"):].rsplit(".", 1)[0]
    package = module.split("/", 1)[0]
    return MODULE_LAYER.get(module) or PACKAGE_LAYER.get(package, "other")


class SpanTracer:
    """Records a span around every call of the methods it wraps."""

    def __init__(self, registry) -> None:
        #: Counter registry handed to stage runners built without one.
        self.registry = registry
        #: One ``[name, layer, parent index, start, end]`` per call.
        self.spans: List[list] = []
        #: ``Fabric.transfer`` bytes and every collected JobResult.
        self.net_bytes = 0.0
        self.job_results: List[object] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(self, cls, method: str, layer: str,
             on_call: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> None:
        original = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, layer, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                value = original(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if on_return is not None:
                on_return(value)
            return value

        setattr(cls, method, wrapper)
        self._patched.append((cls, method, original))

    def install(self) -> None:
        """Wrap each layer's public entry points."""
        def add_bytes(args, kwargs):
            self.net_bytes += kwargs["nbytes"] if "nbytes" in kwargs \
                else args[3]

        def give_registry(args, kwargs):
            # Jobs a StreamServer starts get no registry of their own;
            # lend them this one so their scheduler counters are read.
            metrics = kwargs.get("metrics")
            if metrics is None or not metrics.enabled:
                kwargs["metrics"] = self.registry

        self.wrap(Simulator, "run", "sim")
        self.wrap(FluidPipe, "transfer", "sim.fluid")
        self.wrap(FluidPipe, "poke", "sim.fluid")
        self.wrap(Fabric, "transfer", "net", on_call=add_bytes)
        self.wrap(StageRunner, "__init__", "core.scheduler",
                  on_call=give_registry)
        for method in ("run", "add_capacity", "remove_capacity"):
            self.wrap(StageRunner, method, "core.scheduler")
        self.wrap(SparkSim, "start", "core.engine")
        self.wrap(SparkSim, "collect", "core.engine",
                  on_return=self.job_results.append)
        self.wrap(SparkSim, "cleanup", "core.engine")
        for method in ("write", "read", "delete"):
            self.wrap(LocalVolume, method, "storage")
        self.wrap(FairSharePolicy, "targets", "serve")
        for method in ("admit", "release", "rebalance"):
            self.wrap(SlotPool, method, "serve")

    def restore(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: layer, calls, total and self seconds.  Self time
        is a span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, _layer, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, layer, _p, start, end), child in zip(self.spans, covered):
            row = out.setdefault(name, {"layer": layer, "calls": 0,
                                        "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def write(self, path: str) -> None:
        """Write every span as ``index parent name layer start end``."""
        with open(path, "w") as fh:
            for i, (name, layer, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i} {parent} {name} {layer} {start!r} {end!r}\n")


def counter_totals(registry) -> Dict[str, float]:
    """Registry counter values summed over their labels."""
    totals: Dict[str, float] = defaultdict(float)
    for key, counter in registry.counters.items():
        totals[parse_key(key)[0]] += counter.value
    return totals


def profile_layer_self(stats: dict) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    Functions outside repro and the benchmark (numpy, builtins) pass
    their self time to their callers' layers, split by how much of it
    each caller caused.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def layer_split(func) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        shares[func] = {"other": 1.0}  # stands in while a cycle unwinds
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: 1.0 for c in callers}
            total = float(len(callers))
        split: Dict[str, float] = defaultdict(float)
        for caller, w in weights.items():
            for lay, frac in layer_split(caller).items():
                split[lay] += frac * w / total
        shares[func] = dict(split) if split else {"other": 1.0}
        return shares[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, frac in layer_split(func).items():
            self_s[layer] += tottime * frac
    return self_s
