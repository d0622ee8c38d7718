"""Layer spans recorded from outside the library.

``Tracer.install`` replaces every public function and method of each layer
module (plus the arithmetic operators of ``CycloNum``) with a timing
wrapper. A function is replaced in every namespace that binds it, since
modules import names from each other; a method is replaced on its class.
While ``active`` is set, each call records a span (name, start, end,
parent span, operation id) in flat arrays and adds its self time: its
duration minus the time its child spans cover. ``uninstall`` restores the
originals, so an untraced run pays nothing.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = {
    "cyclotomic": "zarpair.cyclotomic",
    "realization": "zarpair.realization",
    "gluing": "zarpair.gluing",
    "kernel": "zarpair._kernel",
    "combinatorics": "zarpair.combinatorics",
    "automorphisms": "zarpair.automorphisms",
    "characters": "zarpair.characters",
    "invariant": "zarpair.invariant",
    "cli": "zarpair.cli",
}

OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__str__",
}

# Permutation helpers called |G|^2 times inside one group check: a span per
# call would cost more than the check itself. Their time stays with the
# calling group-layer function, which is the same layer.
LEAVES = {"compose_perms", "invert_perm", "perm_order"}

ROOT = "bench.op"

# Per-layer metric groups: metric name -> (span names it sums, what it
# reports per operation).
GROUPS = {
    "cyclotomic.mul": (["CycloNum.__mul__", "CycloNum.__rmul__"], "calls self_s"),
    "cyclotomic.addsub": (
        ["CycloNum.__add__", "CycloNum.__radd__", "CycloNum.__sub__",
         "CycloNum.__rsub__", "CycloNum.__neg__"],
        "calls self_s",
    ),
    "cyclotomic.inverse": (["CycloNum.inverse"], "calls self_s"),
    "cyclotomic.root_of_unity": (["CycloNum.as_root_of_unity"], "calls self_s"),
    "cyclotomic.format": (["format_cyclo"], "calls self_s"),
    "cyclotomic.parse": (["parse_cyclo"], "calls self_s"),
    "realization.derive": (["derive_combinatorics"], "calls self_s"),
    "realization.singular_points": (["Arrangement.singular_points"], "calls self_s"),
    "realization.map_inverse": (["ProjMap.inverse"], "calls self_s"),
    "realization.intersect": (["intersect"], "calls"),
    "realization.apply_line": (["ProjMap.apply_line"], "calls"),
    "realization.apply_point": (["ProjMap.apply_point"], "calls"),
    "gluing.search": (["find_generic_gluing"], "calls self_s"),
    "gluing.check_generic": (["check_generic"], "self_s"),
    "gluing.glue_combinatorics": (["glue_combinatorics"], "self_s"),
    "kernel.search": (["search_line_maps"], "calls self_s"),
    "combinatorics.is_isomorphic": (["is_isomorphic"], "calls self_s"),
    "combinatorics.validate": (["Combinatorics.validate"], "calls self_s"),
    "automorphisms.enumerate": (["enumerate_automorphisms"], "calls self_s"),
    "automorphisms.verify": (["AutGroup.verify_group_axioms"], "self_s"),
    "automorphisms.stats": (["group_stats"], "self_s"),
    "automorphisms.subgroup": (["copy_preserving_subgroup"], "self_s"),
    "characters.inner_cyclic": (
        ["is_inner_cyclic_def", "is_inner_cyclic_remark"],
        "calls self_s",
    ),
    "invariant.glued": (["invariant_of_glued"], "calls self_s"),
    "invariant.entry_check": (["LedgerEntry.check"], "calls self_s"),
    "invariant.verdict": (["detect_zariski", "ZariskiVerdict.check"], "self_s"),
    "cli.run": (["run"], "calls self_s"),
}

# Counters kept by observers on top of calls and self times.
COUNTERS = [
    "gluing.candidates",
    "gluing.rejected.gluing",
    "gluing.rejected.generic",
    "kernel.find_first.calls",
    "kernel.find_all.calls",
    "kernel.maps_found",
    "combinatorics.iso_positive",
    "automorphisms.elements",
    "automorphisms.compositions_computed",
]

# Layers each workload must reach; zero calls there fails the traced run.
REQUIRED = {
    "certify": ["cyclotomic", "realization", "gluing", "characters", "invariant"],
    "cli-lifted": ["cyclotomic", "realization", "gluing", "invariant", "cli"],
    "symmetry": ["automorphisms", "kernel"],
    "isomorphism": ["kernel", "combinatorics"],
}

# Predicted separation, reported with every traced run.
PREDICTED_ZERO = {
    "certify": ["automorphisms", "kernel"],
    "symmetry": ["cyclotomic"],
    "isomorphism": ["cyclotomic", "automorphisms", "gluing"],
}
PREDICTED_LARGEST = {
    "certify": "cyclotomic",
    "symmetry": "automorphisms",
    "isomorphism": "kernel",
}


def _observe_check_gluing(tracer, parent, args, kwargs, result):
    if tracer.span_name(parent) == "gluing.find_generic_gluing":
        tracer.counters["gluing.candidates"] += 1
        if not result:
            tracer.counters["gluing.rejected.gluing"] += 1


def _observe_check_generic(tracer, parent, args, kwargs, result):
    if tracer.span_name(parent) == "gluing.find_generic_gluing" and not result:
        tracer.counters["gluing.rejected.generic"] += 1


def _observe_kernel(tracer, parent, args, kwargs, result):
    find_all = kwargs.get("find_all", args[3] if len(args) > 3 else True)
    tracer.counters["kernel.find_all.calls" if find_all else "kernel.find_first.calls"] += 1
    tracer.counters["kernel.maps_found"] += len(result)


def _observe_is_isomorphic(tracer, parent, args, kwargs, result):
    if result is not None:
        tracer.counters["combinatorics.iso_positive"] += 1


def _observe_enumerate(tracer, parent, args, kwargs, result):
    tracer.counters["automorphisms.elements"] += result.order
    # verify_group_axioms composes every ordered pair of elements
    tracer.counters["automorphisms.compositions_computed"] += result.order ** 2


OBSERVERS = {
    "gluing.check_gluing": _observe_check_gluing,
    "gluing.check_generic": _observe_check_generic,
    "kernel.search_line_maps": _observe_kernel,
    "combinatorics.is_isomorphic": _observe_is_isomorphic,
    "automorphisms.enumerate_automorphisms": _observe_enumerate,
}


def _targets():
    """(layer, owner, attribute, raw attribute, span name) for every
    wrapped callable; owner is a module for functions, a class for methods."""
    out = []
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj) and name not in LEAVES:
                out.append((layer, mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr not in OPERATORS:
                        continue
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn):
                        out.append((layer, obj, attr, raw, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = [ROOT]
        self.layer_of: list[str] = ["bench"]
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.counters = {name: 0 for name in COUNTERS}
        self.parent = array("q")
        self.name = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self._child: list[float] = [0.0]
        self._restore: list[tuple] = []

    def span_name(self, sid: int) -> str:
        return self.names[self.name[sid]] if sid >= 0 else ""

    # -- installing --------------------------------------------------------

    def install(self, namespaces=()) -> None:
        """Wrap every layer callable; ``namespaces`` are extra modules (the
        benchmark's own) whose imported names are replaced as well."""
        spaces = [
            m for n, m in sys.modules.items() if n == "zarpair" or n.startswith("zarpair.")
        ] + list(namespaces)
        for layer, owner, attr, raw, span in _targets():
            fn = getattr(raw, "__func__", raw)
            wrapper = self._wrapper(fn, self._register(layer, span), OBSERVERS.get(span))
            if inspect.isclass(owner):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, type(raw)(wrapper) if fn is not raw else wrapper)
                continue
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is fn:
                        self._restore.append((space, key, fn))
                        setattr(space, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _register(self, layer: str, span: str) -> int:
        self.names.append(span)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrapper(self, fn, idx, observe):
        tracer = self
        stack, child = self._stack, self._child
        parents, names, ops, starts, ends = (
            self.parent, self.name, self.op_id, self.start, self.end
        )
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            parent = stack[-1]
            parents.append(parent)
            names.append(idx)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                child[-1] += t1 - t0
                starts[sid] = t0
                ends[sid] = t1
                calls[idx] += 1
                self_s[idx] += t1 - t0 - covered
            if observe is not None:
                observe(tracer, parent, args, kwargs, result)
            return result

        return wrapper

    # -- operations --------------------------------------------------------

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as operation ``op`` under a root span."""
        self.op = op
        wrapped = self._wrapper(fn, 0, None)
        self.active = True
        try:
            return wrapped(*args)
        finally:
            self.active = False

    # -- results -----------------------------------------------------------

    def by_layer(self, values) -> dict:
        """Sum a per-name list (calls or self seconds) by layer."""
        out = {layer: 0 for layer in LAYERS}
        for layer, value in zip(self.layer_of, values):
            if layer in out:
                out[layer] += value
        return out

    def per_layer_metrics(self, n_ops: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, per operation (ratios as they are)."""
        by_name = {
            name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)
        }

        def group(key):
            layer = key.split(".")[0]
            spans = [by_name.get(f"{layer}.{s}", (0, 0.0)) for s in GROUPS[key][0]]
            return {"calls": sum(c for c, _ in spans), "self_s": sum(t for _, t in spans)}

        m: dict[str, float] = {}
        for key, (_, reports) in GROUPS.items():
            totals = group(key)
            for kind in reports.split():
                m[f"{key}.{kind}"] = totals[kind] / n_ops
        c = self.counters
        for name in COUNTERS:
            if name != "combinatorics.iso_positive":
                m[name] = c[name] / n_ops
        searches = group("gluing.search")["calls"]
        iso_calls = group("combinatorics.is_isomorphic")["calls"]
        m["gluing.accept_ratio"] = (
            searches / c["gluing.candidates"] if c["gluing.candidates"] else 0.0
        )
        m["combinatorics.iso_positive_ratio"] = (
            c["combinatorics.iso_positive"] / iso_calls if iso_calls else 0.0
        )
        for suffix in ("from_obj", "to_obj"):
            m[f"cli.{suffix}.self_s"] = sum(
                self.self_s[i] for i, name in enumerate(self.names)
                if name.endswith("." + suffix)
            ) / n_ops
        for layer, total in self.by_layer(self.self_s).items():
            m[f"{layer}.self_s"] = total / n_ops
        m["trace.overhead"] = overhead
        m["trace.spans"] = len(self.start) / n_ops
        return m

    def separation(self, workload: str) -> dict:
        """Required layers reached, and the predicted zero-call layers and
        largest self time, each with whether it held. ``broken`` lists every
        prediction that failed; any entry fails the traced run."""
        calls = self.by_layer(self.calls)
        selfs = self.by_layer(self.self_s)
        largest = max(selfs, key=selfs.get)
        out = {
            "unreached": [l for l in REQUIRED.get(workload, []) if calls[l] == 0],
            "predicted_zero": {
                l: calls[l] == 0 for l in PREDICTED_ZERO.get(workload, [])
            },
            "largest_self": largest,
        }
        broken = [f"no call in {l}" for l in out["unreached"]]
        broken += [f"calls in {l}" for l, zero in out["predicted_zero"].items() if not zero]
        if workload in PREDICTED_LARGEST:
            out["predicted_largest"] = PREDICTED_LARGEST[workload]
            out["largest_as_predicted"] = largest == PREDICTED_LARGEST[workload]
            if not out["largest_as_predicted"]:
                broken.append(f"largest self time in {largest}, "
                              f"not {PREDICTED_LARGEST[workload]}")
        out["broken"] = broken
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: a header naming the span names, then
        [id, parent, op, name index, start, end] per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.start)):
                out.write(
                    f"[{sid},{self.parent[sid]},{self.op_id[sid]},{self.name[sid]},"
                    f"{self.start[sid]!r},{self.end[sid]!r}]\n"
                )
