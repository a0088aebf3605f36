"""Span recorder for the traced run, and the per-layer metrics read off it.

`instrument` wraps every public function of the layer modules at every name
binding in the `cgd.*` namespaces (the modules import each other's
functions by name), `apply` on every `Dynamics` subclass and on
`ShiftedDynamics`, and `BlockKit.from_family` / `BlockKit.decompose_step`.
Each call made while the recorder is active becomes a span: name, start,
end, parent span and the command run it belongs to.  Spans are kept in
memory in flat arrays and written out when the run ends.  The counts
(vertices canonicalized, patch overlaps, enumeration candidates, applies
per member) are taken in the wrappers from arguments and results.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("portgraph", "modulo", "dynamics", "patches", "families",
          "reversibility", "blocks", "cli")

# The built-in rule dynamics, whose applies make up `dynamics.apply`.
BUILTIN_APPLIES = ("dynamics.IdentityDynamics.apply",
                   "dynamics.RawStepDynamics.apply",
                   "dynamics.TurtleDynamics.apply")


class Recorder:
    """Spans in flat arrays, plus counts keyed by (count name, size).

    Every command run gets an index; `sizes[i]` is the size tag of run i
    ("n", "2n" or "fixed") and `scales[i]` the factor that rescales its
    times to the reference host speed (see hostspeed.py).
    """

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.sizes: List[str] = []
        self.scales: List[float] = []
        self.parent = array("l")
        self.name = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.open: List[int] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self.open.append(0)
        return self._name_index[name]

    def start_command(self, size: str) -> None:
        self.sizes.append(size)
        self.scales.append(1.0)
        self.active = True

    def end_command(self, scale: float) -> None:
        self.active = False
        self.scales[-1] = scale

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(key, self.sizes[-1])] += value

    def is_open(self, name: str) -> bool:
        return self.open[self._name_index[name]] > 0

    def wrap(self, fn: Callable, name: str,
             hook: Optional[Callable[["Recorder", tuple, dict, object], None]] = None
             ) -> Callable:
        idx = self.intern(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = len(rec.start)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.name.append(idx)
            rec.run.append(len(rec.sizes) - 1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(span)
            rec.open[idx] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.start[span] = t0
                rec.end[span] = t1
                rec.stack.pop()
                rec.open[idx] -= 1
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str) -> int:
        """Write every span as tab-separated text; returns the span count.

        Times are raw wall clock; `scale` rescales them to the reference
        host speed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\tname\tcommand_run\tsize\tscale\t"
                      "start_s\tend_s\n")
            for span in range(len(self.start)):
                run = self.run[span]
                out.write(f"{span}\t{self.parent[span]}\t"
                          f"{self.names[self.name[span]]}\t{run}\t"
                          f"{self.sizes[run]}\t{self.scales[run]:.6f}\t"
                          f"{self.start[span]:.9f}\t{self.end[span]:.9f}\n")
        return len(self.start)


# ---------------------------------------------------------------------------
# Counting hooks
# ---------------------------------------------------------------------------


def _canonicalized(rec: Recorder, args, kwargs, result) -> None:
    rec.count("modulo.canonicalize.vertices", len(result[0].vertices))
    if rec.is_open("reversibility.enumerate_family"):
        rec.count("reversibility.enumerate_family.candidates")


def _consistent(rec: Recorder, args, kwargs, result) -> None:
    G, H = args[0], args[1]
    if not set(G.vertices).isdisjoint(H.vertices):
        rec.count("patches.consistent.overlaps")


def _enumerated(rec: Recorder, args, kwargs, result) -> None:
    rec.count("reversibility.enumerate_family.members", len(result))


def _inverse_built(rec: Recorder, args, kwargs, result) -> None:
    family = args[1] if len(args) > 1 else kwargs["fam"]
    rec.count("reversibility.build_inverse.members", len(family))


def _builtin_applied(rec: Recorder, args, kwargs, result) -> None:
    if rec.is_open("reversibility.build_inverse"):
        rec.count("reversibility.build_inverse.applies")


HOOKS = {
    "modulo.canonicalize_with_names": _canonicalized,
    "patches.consistent": _consistent,
    "reversibility.enumerate_family": _enumerated,
    "reversibility.build_inverse": _inverse_built,
    **{name: _builtin_applied for name in BUILTIN_APPLIES},
}


def instrument(rec: Recorder) -> int:
    """Wrap the layers' public functions and the named methods; returns
    how many callables were wrapped."""
    modules = {layer: sys.modules[f"cgd.{layer}"] for layer in LAYERS}
    wrapped: Dict[Callable, Callable] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                wrapped[obj] = rec.wrap(obj, name, HOOKS.get(name))
    for module_name, module in list(sys.modules.items()):
        if module_name != "cgd" and not module_name.startswith("cgd."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    from cgd.blocks import BlockKit, ShiftedDynamics
    from cgd.dynamics import Dynamics

    classes, todo = [ShiftedDynamics], [Dynamics]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.append(sub)
            todo.append(sub)
    methods = [(cls, "apply") for cls in classes if "apply" in vars(cls)]
    methods += [(BlockKit, "from_family"), (BlockKit, "decompose_step")]
    for cls, attr in methods:
        name = f"{cls.__module__.removeprefix('cgd.')}.{cls.__name__}.{attr}"
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(raw.__func__, name, HOOKS.get(name))))
        else:
            setattr(cls, attr, rec.wrap(raw, name, HOOKS.get(name)))
    return len(wrapped) + len(methods)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# Layer metric -> the span names it covers.  Calls count the outermost spans
# of a group only, so canonicalize -> canonicalize_with_names is one call.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "portgraph.validate": ("portgraph.validate",),
    "portgraph.serialize_graph": ("portgraph.serialize_graph",),
    "portgraph.parse_graph": ("portgraph.parse_graph",),
    "modulo.canonicalize": ("modulo.canonicalize", "modulo.canonicalize_with_names"),
    "modulo.shift": ("modulo.shift", "modulo.shift_with_names"),
    "modulo.disk": ("modulo.disk",),
    "dynamics.apply": BUILTIN_APPLIES,
    "patches.apply_local_rule": ("patches.apply_local_rule",),
    "patches.consistent": ("patches.consistent",),
    "patches.union": ("patches.union",),
    "families.shift_closure": ("families.shift_closure",),
    "reversibility.enumerate_family": ("reversibility.enumerate_family",),
    "reversibility.check_bijective_on_family": ("reversibility.check_bijective_on_family",),
    "reversibility.check_class_preservation": ("reversibility.check_class_preservation",),
    "reversibility.build_inverse": ("reversibility.build_inverse",),
    "reversibility.TableDynamics.apply": ("reversibility.TableDynamics.apply",),
    "blocks.BlockKit.from_family": ("blocks.BlockKit.from_family",),
    "blocks.decompose_step": ("blocks.BlockKit.decompose_step",),
    "blocks.apply_product": ("blocks.apply_product",),
    "blocks.gate": ("blocks.ShiftedDynamics.apply",),
    "blocks.ReversibleExtension.apply": ("blocks.ReversibleExtension.apply",),
    "blocks.mark": ("blocks.mark", "blocks.mark_with_names", "blocks.MarkDynamics.apply"),
    "blocks.find_locality_radius": ("blocks.find_locality_radius",),
    "cli.main": ("cli.main",),
}


class LayerStats:
    """Per (group, size): outermost calls, self time and inclusive time,
    the times rescaled to the reference host speed."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        group_of: Dict[int, str] = {}
        for group, names in GROUPS.items():
            for name in names:
                if name in rec.names:
                    group_of[rec.intern(name)] = group
        n = len(rec.start)
        duration = [(rec.end[i] - rec.start[i]) * rec.scales[rec.run[i]]
                    for i in range(n)]
        self_time = list(duration)
        for span in range(n):
            p = rec.parent[span]
            if p >= 0:
                self_time[p] -= duration[span]
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.span_self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        for span in range(n):
            name = rec.name[span]
            size = rec.sizes[rec.run[span]]
            self.span_self_s[(rec.names[name], size)] += self_time[span]
            group = group_of.get(name)
            if group is None:
                continue
            self.self_s[(group, size)] += self_time[span]
            p = rec.parent[span]
            if p < 0 or group_of.get(rec.name[p]) != group:
                self.calls[(group, size)] += 1
                self.total_s[(group, size)] += duration[span]
        self.span_count = n

    # Each lookup sums over all sizes when `size` is None.
    @staticmethod
    def _sum(table, key: str, size: Optional[str]) -> float:
        if size is not None:
            return table.get((key, size), 0)
        return sum(v for (k, _s), v in table.items() if k == key)

    def calls_of(self, group: str, size: Optional[str] = None) -> int:
        return self._sum(self.calls, group, size)

    def self_of(self, group: str, size: Optional[str] = None) -> float:
        return self._sum(self.self_s, group, size)

    def total_of(self, group: str, size: Optional[str] = None) -> float:
        return self._sum(self.total_s, group, size)

    def count_of(self, key: str, size: Optional[str] = None) -> float:
        return self._sum(self.rec.counts, key, size)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: LayerStats, rounds: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced round, as name -> (value, unit)."""
    m: Dict[str, Tuple[float, str]] = {}

    def calls(group):
        m[f"{group}.calls"] = (stats.calls_of(group) / rounds, "count")

    def self_s(group):
        m[f"{group}.self_s"] = (stats.self_of(group) / rounds, "s")

    calls("portgraph.validate")
    self_s("portgraph.validate")
    self_s("portgraph.serialize_graph")
    self_s("portgraph.parse_graph")
    calls("modulo.canonicalize")
    self_s("modulo.canonicalize")
    vertices = stats.count_of("modulo.canonicalize.vertices")
    m["modulo.canonicalize.vertices"] = (vertices / rounds, "count")
    m["modulo.canonicalize.us_per_vertex"] = (
        1e6 * _ratio(stats.self_of("modulo.canonicalize"), vertices), "us")
    for group in ("modulo.shift", "modulo.disk", "dynamics.apply"):
        calls(group)
        self_s(group)
    self_s("patches.apply_local_rule")
    calls("patches.consistent")
    self_s("patches.consistent")
    m["patches.consistent.overlap_ratio"] = (_ratio(
        stats.count_of("patches.consistent.overlaps"),
        stats.calls_of("patches.consistent")), "ratio")
    calls("patches.union")
    self_s("patches.union")
    self_s("families.shift_closure")
    self_s("reversibility.enumerate_family")
    candidates = stats.count_of("reversibility.enumerate_family.candidates")
    m["reversibility.enumerate_family.candidates"] = (candidates / rounds, "count")
    m["reversibility.enumerate_family.yield_ratio"] = (_ratio(
        stats.count_of("reversibility.enumerate_family.members"), candidates), "ratio")
    self_s("reversibility.check_bijective_on_family")
    self_s("reversibility.check_class_preservation")
    self_s("reversibility.build_inverse")
    m["reversibility.applies_per_member"] = (_ratio(
        stats.count_of("reversibility.build_inverse.applies"),
        stats.count_of("reversibility.build_inverse.members")), "ratio")
    calls("reversibility.TableDynamics.apply")
    self_s("reversibility.TableDynamics.apply")
    self_s("blocks.BlockKit.from_family")
    m["blocks.BlockKit.from_family.total_s"] = (
        stats.total_of("blocks.BlockKit.from_family") / rounds, "s")
    self_s("blocks.decompose_step")
    self_s("blocks.apply_product")
    m["blocks.gates"] = (stats.calls_of("blocks.gate") / rounds, "count")
    for size in ("n", "2n"):
        m[f"blocks.us_per_gate.{size}"] = (1e6 * _ratio(
            stats.total_of("blocks.gate", size), stats.calls_of("blocks.gate", size)), "us")
    for group in ("blocks.ReversibleExtension.apply", "blocks.mark"):
        calls(group)
        self_s(group)
    self_s("blocks.find_locality_radius")
    self_s("cli.main")
    return m


def summary_table(stats: LayerStats, rounds: int, traced_round_s: float,
                  sizes: List[str]) -> str:
    """Self time, its share of traced round_s, inclusive time and calls per
    layer metric, one column block per command size (n and 2n for the tape
    workloads)."""
    header = f"{'layer':40s}" + "".join(
        f" | {c:>5s} self_s  share  total_s    calls" for c in sizes)
    lines = [header, "-" * len(header)]
    for group in GROUPS:
        if not any(stats.calls_of(group, c) for c in sizes):
            continue
        row = f"{group:40s}"
        for c in sizes:
            s = stats.self_of(group, c) / rounds
            row += (f" | {s:12.6f} {100 * s / traced_round_s:5.1f}% "
                    f"{stats.total_of(group, c) / rounds:8.4f} "
                    f"{stats.calls_of(group, c) / rounds:8.0f}")
        lines.append(row)
    return "\n".join(lines)


def top_spans(stats: LayerStats, rounds: int, traced_round_s: float,
              limit: int = 12) -> str:
    """The span names with the most self time over the whole round."""
    totals: Dict[str, float] = defaultdict(float)
    for (name, _ctx), s in stats.span_self_s.items():
        totals[name] += s
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return "\n".join(f"  {name:48s} {s / rounds:10.6f} s  "
                     f"{100 * s / rounds / traced_round_s:5.1f}%"
                     for name, s in ranked)
