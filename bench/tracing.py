"""Per-layer timing of icdms from outside the program.

The benchmark replaces a function, as bound in the module that calls it,
with a wrapper that records a span: name, start, end, parent span and op
id, plus the work counts of that call.  Spans stay in memory and are
written out when the op (subprocess) or the run (``run.py``) ends.  A span's
self time is its duration minus the durations of its direct children;
calls are strictly nested, so children never overlap.

A target that a later version of the program renames or removes is
recorded as absent, and every metric derived from it is reported as
``"absent"`` instead of a number.  So is a target whose work counts can no
longer be read from its arguments or result (its signature changed), so
that a count never reads 0 in place of a number.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path


def _pentagon(args, out):
    feasible = out[3]
    return {"tuples": int(feasible.size), "feasible": int(feasible.sum())}


def _suc(args, out):
    return {"tuples": int(out[0].size)}


def _union(args, out):
    return {"pentagons": int(args[0].size), "samples": int(out.r2.size)}


def _hull(args, out):
    return {"points": int(args[0].r2.size)}


def _csv(args, out):
    return {"bytes": Path(args[0]).stat().st_size}


def _mc(args, out):
    return {"samples": int(args[1])}


def _assemble(args, out):
    return {"cells": int(out.table.size), "bytes": int(out.table.nbytes)}


def _mi(args, out):
    return {"bytes": int(args[0].table.nbytes)}


#: (module, attribute as bound there, layer, work counter).  The layer
#: names the per-layer metrics the span feeds.
TARGETS = (
    ("icdms.cli", "sweep_gaussian", "geometry.sweep", None),
    ("icdms.cli", "time_sharing_hull", "geometry.hull", _hull),
    ("icdms.cli", "load_config", "cli.config", None),
    ("icdms.cli", "_write_csv", "cli.csv", _csv),
    ("icdms.cli", "_svg_plot", "cli.svg", None),
    ("icdms.cli", "_write_meta", "cli.meta", None),
    ("icdms.cli", "mc_gaussian_entropy", "oracle.mc", _mc),
    ("icdms.cli", "brute_joint_mi", "oracle.brute", None),
    ("icdms.cli", "entropy_terms", "gaussian.entropy", None),
    ("icdms.geometry", "_region_g_arrays", "gaussian.pentagon", _pentagon),
    ("icdms.geometry", "_region_g_suc_values", "gaussian.suc", _suc),
    ("icdms.geometry", "_union_arrays", "geometry.union", _union),
    ("icdms.discrete", "assemble_joint", "discrete.assemble", _assemble),
    ("icdms.discrete", "conditional_mi", "discrete.mi", _mi),
)

#: Spans the benchmark opens itself, around calls it makes.
BENCH_LAYERS = {
    "bench.op": None,
    "cli.import": "cli.import",
    "cli.main": "cli.main",
    "bench.region_full": "discrete.region",
    "bench.region_sim": "discrete.region",
    "bench.region_suc": "discrete.region",
}

_SIZES = ("small", "large")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [
        ("gaussian.pentagon_s", "s"),
        ("gaussian.pentagon_calls", "count"),
        ("gaussian.pentagon_tuples", "count"),
        ("gaussian.feasible_ratio", "ratio"),
        ("gaussian.suc_s", "s"),
        ("gaussian.suc_tuples", "count"),
        ("gaussian.entropy_s", "s"),
        ("geometry.sweep_s", "s"),
        ("geometry.sweep_self_s", "s"),
        ("geometry.union_s", "s"),
        ("geometry.union_pentagons", "count"),
        ("geometry.union_samples", "count"),
        ("geometry.union_cells", "count"),
        ("geometry.union_cells_per_s", "1/s"),
        ("geometry.hull_s", "s"),
        ("geometry.hull_points", "count"),
    ]
    + [
        (f"discrete.{base}.{size}", unit)
        for base, unit in (
            ("assemble_s", "s"),
            ("mi_s", "s"),
            ("mi_calls", "count"),
            ("region_self_s", "s"),
            ("joint_cells", "count"),
            ("bytes_computed", "B"),
        )
        for size in _SIZES
    ]
    + [
        ("oracle.mc_s", "s"),
        ("oracle.mc_calls", "count"),
        ("oracle.mc_samples", "count"),
        ("oracle.mc_samples_per_s", "1/s"),
        ("oracle.brute_s", "s"),
        ("oracle.z_exceed", "count"),
        ("cli.import_s", "s"),
        ("cli.config_s", "s"),
        ("cli.csv_s", "s"),
        ("cli.csv_bytes", "B"),
        ("cli.svg_s", "s"),
        ("cli.meta_s", "s"),
        ("cli.self_s", "s"),
        ("trace.op_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.covered_ratio", "ratio"),
        ("trace.spans", "count"),
    ]
)

#: Metrics that depend on a wrapped target, by the target's layer.
_DEPENDS = {
    "geometry.sweep": ("geometry.sweep_s", "geometry.sweep_self_s"),
    "gaussian.pentagon": ("gaussian.pentagon_", "gaussian.feasible_ratio", "geometry.sweep_self_s"),
    "gaussian.suc": ("gaussian.suc_", "geometry.sweep_self_s"),
    "geometry.union": ("geometry.union_", "geometry.sweep_self_s"),
    "discrete.assemble": ("discrete.assemble_s", "discrete.joint_cells", "discrete.bytes_computed", "discrete.region_self_s"),
    "discrete.mi": ("discrete.mi_", "discrete.bytes_computed", "discrete.region_self_s"),
}


class Tracer:
    """Records spans of one process; ``op`` tags the spans of the current op."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record a span timed by the caller (e.g. an import)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op": self.op, **counts}
        )

    def wrap(self, name: str, fn, count=None, **tags):
        def traced(*args, **kwargs):
            rec = {"name": name, "start": 0.0, "end": 0.0, "op": self.op, **tags}
            rec["parent"] = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    rec.update(count(args, out))
                except Exception:
                    rec["count_error"] = True
                    if name not in self.absent:
                        self.absent.append(name)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the targets of the given modules (module name -> module)."""
        for mod_name, attr, layer, count in TARGETS:
            if mod_name not in modules:
                continue
            fn = getattr(modules[mod_name], attr, None)
            name = f"{mod_name.split('.')[-1]}.{attr}"
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((modules[mod_name], attr, fn))
            setattr(modules[mod_name], attr, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _layer_of(name: str) -> str | None:
    if name in BENCH_LAYERS:
        return BENCH_LAYERS[name]
    for mod_name, attr, layer, _ in TARGETS:
        if name == f"{mod_name.split('.')[-1]}.{attr}":
            return layer
    return None


def op_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (parents index ``spans``).

    ``wall`` is the op's wall time as ``run.py`` measured it; the share of
    it covered by the op's top-level spans is ``trace.covered_ratio``.
    """
    dur = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            children[s["parent"]] += d
    layers = [_layer_of(s["name"]) for s in spans]

    def size_of(k: int) -> str:
        while k is not None:
            if "size" in spans[k]:
                return spans[k]["size"]
            k = spans[k]["parent"]
        return "large"

    m = {name: 0.0 for name, _ in PER_LAYER}
    covered = 0.0
    for k, (s, d, layer) in enumerate(zip(spans, dur, layers)):
        self_t = d - children[k]
        if s["parent"] is None:
            covered += d
        if layer == "gaussian.pentagon":
            m["gaussian.pentagon_s"] += d
            m["gaussian.pentagon_calls"] += 1
            m["gaussian.pentagon_tuples"] += s.get("tuples", 0)
            m["gaussian.feasible_ratio"] += s.get("feasible", 0)
        elif layer == "gaussian.suc":
            m["gaussian.suc_s"] += d
            m["gaussian.suc_tuples"] += s.get("tuples", 0)
        elif layer == "gaussian.entropy":
            m["gaussian.entropy_s"] += d
        elif layer == "geometry.sweep":
            m["geometry.sweep_s"] += d
            m["geometry.sweep_self_s"] += self_t
        elif layer == "geometry.union":
            m["geometry.union_s"] += d
            m["geometry.union_pentagons"] += s.get("pentagons", 0)
            m["geometry.union_samples"] += s.get("samples", 0)
            m["geometry.union_cells"] += s.get("pentagons", 0) * s.get("samples", 0)
        elif layer == "geometry.hull":
            m["geometry.hull_s"] += d
            m["geometry.hull_points"] += s.get("points", 0)
        elif layer == "discrete.assemble":
            size = size_of(k)
            m[f"discrete.assemble_s.{size}"] += d
            m[f"discrete.joint_cells.{size}"] += s.get("cells", 0)
            m[f"discrete.bytes_computed.{size}"] += s.get("bytes", 0)
        elif layer == "discrete.mi":
            size = size_of(k)
            m[f"discrete.mi_s.{size}"] += d
            m[f"discrete.mi_calls.{size}"] += 1
            m[f"discrete.bytes_computed.{size}"] += s.get("bytes", 0)
        elif layer == "discrete.region":
            m[f"discrete.region_self_s.{s.get('size', 'large')}"] += self_t
        elif layer == "oracle.mc":
            m["oracle.mc_s"] += d
            m["oracle.mc_calls"] += 1
            m["oracle.mc_samples"] += s.get("samples", 0)
        elif layer == "oracle.brute":
            m["oracle.brute_s"] += d
        elif layer == "cli.import":
            m["cli.import_s"] += d
        elif layer == "cli.config":
            m["cli.config_s"] += d
        elif layer == "cli.csv":
            m["cli.csv_s"] += d
            m["cli.csv_bytes"] += s.get("bytes", 0)
        elif layer == "cli.svg":
            m["cli.svg_s"] += d
        elif layer == "cli.meta":
            m["cli.meta_s"] += d
        elif layer == "cli.main":
            m["cli.self_s"] += self_t
    tuples = m["gaussian.pentagon_tuples"]
    m["gaussian.feasible_ratio"] = m["gaussian.feasible_ratio"] / tuples if tuples else 0.0
    m["geometry.union_cells_per_s"] = (
        m["geometry.union_cells"] / m["geometry.union_s"] if m["geometry.union_s"] else 0.0
    )
    m["oracle.mc_samples_per_s"] = m["oracle.mc_samples"] / m["oracle.mc_s"] if m["oracle.mc_s"] else 0.0
    m["trace.op_s"] = wall
    m["trace.covered_ratio"] = covered / wall if wall > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m


def run_metrics(per_op: list[dict], untraced_walls: list[float], absent) -> dict:
    """Every per-layer metric as reported: the median over the traced ops,
    except ``trace.op_s`` (a mean, like ``op_s``) and ``trace.overhead_s``."""
    out = {}
    for name, unit in PER_LAYER:
        value = statistics.median(m[name] for m in per_op)
        out[name] = {"value": value, "unit": unit}
    out["trace.op_s"]["value"] = statistics.fmean(m["trace.op_s"] for m in per_op)
    out["trace.overhead_s"]["value"] = out["trace.op_s"]["value"] - statistics.fmean(untraced_walls)
    for target in absent:
        layer = _layer_of(target)
        for prefix in _DEPENDS.get(layer, (layer + "_",) if layer else ()):
            for name, unit in PER_LAYER:
                if name.startswith(prefix):
                    out[name] = {"value": "absent", "unit": unit}
    return out
