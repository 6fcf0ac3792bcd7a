"""Spans around the calls into each golden_bounds module, recorded from outside.

``Tracer.install`` wraps every public function of the seven layer modules,
the eigensolver ``linalg._jacobi`` (the one internal name wrapped, because
the solver has no public entry point), and each entry of the public recipe
table ``certify.RECIPES`` (one span per certified instance).  Modules bind
names at import (``from .linalg import power``), so each wrapper replaces
the name in every golden_bounds module that holds it; otherwise calls through
the imported name would count zero.  Spans stay in memory until the run ends.

A missing name raises ``TraceError`` at install, and ``require`` raises when a
span the workload must reach never fired: a renamed or bypassed boundary
breaks the benchmark visibly instead of reporting zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

from stats import self_times

PACKAGE = "golden_bounds"
LAYERS = ("cli", "certify", "sampling", "means", "orders", "linalg", "constants")
JACOBI = "linalg._jacobi"
INSTANCE = "certify.instance"
CHAIN = "sampling.ordered_chain_pair"
OLSON = "orders.olson_leq"
LOEWNER = "orders.loewner_leq"
#: Layers that own the Jacobi calls made beneath them (see ``jacobi_owner``).
JACOBI_OWNERS = ("sampling", "orders", "means", "certify")

#: Names the metrics are computed from: a later change keeps them, or
#: changes the benchmark with them.
REQUIRED_NAMES = {
    "cli": ("main",),
    "certify": ("run_instances", "convergence_study", "RECIPES"),
    "sampling": ("ordered_chain_pair",),
    "orders": ("loewner_leq", "olson_leq"),
    "linalg": ("_jacobi", "PositiveDefiniteMatrix"),
}


class TraceError(RuntimeError):
    """A boundary the benchmark measures is missing or was never crossed."""


class Tracer:
    """Records spans as [name, start, end, parent index, call, instance, n]."""

    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self.instance = -1
        self.pd_checks = 0
        self._jacobi_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, *, is_instance: bool = False, is_jacobi: bool = False):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_instance:
                tracer.instance += 1
            n = 0
            if is_jacobi:
                tracer._jacobi_calls += 1
                n = len(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.call, tracer.instance, n]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _wrap_pd_init(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, entries, *, decomposition=None):
            before = tracer._jacobi_calls
            init(obj, entries, decomposition=decomposition)
            if decomposition is None and tracer._jacobi_calls > before:
                tracer.pd_checks += 1

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: sys.modules.get(f"{PACKAGE}.{layer}") for layer in LAYERS}
        absent = [layer for layer, module in modules.items() if module is None]
        if absent:
            raise TraceError(f"{PACKAGE} has not imported {', '.join(absent)}")
        for layer, names in REQUIRED_NAMES.items():
            missing = [n for n in names if not hasattr(modules[layer], n)]
            if missing:
                raise TraceError(f"{PACKAGE}.{layer} lacks {', '.join(missing)}")
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or f"{layer}.{attr}" == JACOBI)
                ):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = (obj, self._wrap(name, obj, is_jacobi=name == JACOBI))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        recipes = modules["certify"].RECIPES
        for key, recipe in list(recipes.items()):
            self._undo.append((recipes, key, recipe))
            recipes[key] = self._wrap(INSTANCE, recipe, is_instance=True)
        pd = modules["linalg"].PositiveDefiniteMatrix
        self._set(pd, "__init__", self._wrap_pd_init(pd.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Span count per name, per layer (``layer.*``) and per Jacobi
        dimension (``linalg._jacobi@n``)."""
        out: dict[str, int] = {}
        for name, *_rest, n in self.spans:
            keys = [name, f"{layer_of(name)}.*"]
            if name == JACOBI:
                keys.append(f"{JACOBI}@{n}")
            for key in keys:
                out[key] = out.get(key, 0) + 1
        return out

    def require(self, names) -> None:
        counts = self.counts()
        silent = [name for name in names if not counts.get(name)]
        if silent:
            raise TraceError(f"spans never fired on this workload: {', '.join(silent)}")

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines (start/end in seconds)."""
        keys = ("name", "start", "end", "parent", "call", "instance", "n")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def jacobi_owner(spans, index: int) -> str:
    """Layer of the nearest enclosing span outside linalg."""
    parent = spans[index][3]
    while parent >= 0 and layer_of(spans[parent][0]) == "linalg":
        parent = spans[parent][3]
    return layer_of(spans[parent][0]) if parent >= 0 else "none"


def layer_metrics(tracer: Tracer, instances: int, tables: int, call_seconds: float) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    ``call_seconds`` is the summed wall time of the traced CLI calls.
    """
    spans = tracer.spans
    selfs = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    jacobi_calls, jacobi_s = 0, 0.0
    by_dim: dict[int, list[float]] = {}
    owners = dict.fromkeys(JACOBI_OWNERS, 0)
    loewner = olson = chain_checks = 0
    chains = set()
    for index, (name, start, end, parent, _call, _inst, n) in enumerate(spans):
        layer = layer_of(name)
        layer_calls[layer] += 1
        if name == JACOBI:
            jacobi_calls += 1
            jacobi_s += end - start
            by_dim.setdefault(n, []).append(end - start)
            owner = jacobi_owner(spans, index)
            owners[owner] = owners.get(owner, 0) + 1
            continue
        layer_self[layer] += selfs[index]
        if name == LOEWNER:
            loewner += 1
        elif name == OLSON:
            olson += 1
            if parent >= 0 and spans[parent][0] == CHAIN:
                chain_checks += 1
                chains.add(parent)
    per_instance = 1.0 / instances

    def us_at(n: int) -> float:
        times = by_dim.get(n)
        return 1e6 * sum(times) / len(times) if times else 0.0

    metrics = {
        "cli.self_s": layer_self["cli"],
        "certify.self_s": layer_self["certify"],
        "sampling.self_s": layer_self["sampling"],
        "sampling.calls": layer_calls["sampling"],
        "sampling.chain_accept_ratio": len(chains) / chain_checks if chain_checks else 0.0,
        "means.self_s": layer_self["means"],
        "means.calls": layer_calls["means"],
        "orders.self_s": layer_self["orders"],
        "orders.loewner_calls_per_instance": loewner * per_instance,
        "orders.olson_calls_per_instance": olson * per_instance,
        "linalg.jacobi_calls_per_instance": jacobi_calls * per_instance,
        "linalg.jacobi_calls_per_table": jacobi_calls / tables,
    }
    for owner in JACOBI_OWNERS:
        metrics[f"linalg.jacobi_calls_per_instance.{owner}"] = owners[owner] * per_instance
    metrics.update(
        {
            "linalg.jacobi_s": jacobi_s,
            "linalg.jacobi_share": jacobi_s / call_seconds,
            "linalg.self_s": layer_self["linalg"],
            **{f"linalg.jacobi_us_n{n}": us_at(n) for n in (2, 3, 4, 5, 6, 16)},
            "linalg.pd_checks_without_decomposition": tracer.pd_checks,
            "constants.calls": layer_calls["constants"],
            "constants.self_s": layer_self["constants"],
        }
    )
    return metrics
