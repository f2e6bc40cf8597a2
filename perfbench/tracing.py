"""Spans and counters around the public functions of each spherefrac module.

The wrappers live here, in the benchmark, and are installed by patching:
every module attribute that is the original function is replaced, so
`spherefrac.cli.perimeter_cap` and `spherefrac.limits.perimeter_cap` both
record, and methods are patched on their class.  A name that no longer
exists is reported as missing instead of raising, so renaming or deleting a
function never breaks a run.

Spans (name, start, end, parent) are kept in flat arrays while the run
lasts; a layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _size(result) -> int:
    return 0 if result is None else int(np.size(result))


def _rows(points) -> int:
    return int(points.size // points.shape[-1])


CALLS = ("calls", lambda result: 1)
POINTS = ("points", _size)
HITS = ("hits", lambda result: int(np.count_nonzero(result)))
SAMPLED = ("points", _rows)
# adaptive_quad's integrand evaluations are counted by wrapping the integrand
EVALS = ("evals", None)

SET_TYPES = ("Cap", "Polytope", "PolyconvexUnion", "Complement", "Reflection")


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: spherefrac.<module>.[<owner>.]<attr>.

    counters holds (quantity, f) pairs; f(result) is one call's increment.
    A layer counting hits reports hit_frac = hits / points instead.
    """

    module: str
    attr: str
    owner: str | None = None
    counters: tuple = ()
    alias: str | None = None  # metric spelling of attr, e.g. "init" for __init__

    @property
    def name(self) -> str:
        parts = [self.module] + ([self.owner] if self.owner else []) + [self.alias or self.attr]
        return ".".join(parts)


LAYERS = (
    Layer("cli", "main"),
    Layer("cli", "parse_set"),
    Layer("limits", "sweep_s_to_1"),
    Layer("limits", "sweep_s_to_minus_inf"),
    Layer("limits", "sweep_seminorm_to_minus_inf"),
    Layer("perimeter", "perimeter_cap", counters=(CALLS,)),
    Layer("perimeter", "perimeter_mc"),
    Layer("perimeter", "seminorm_mc"),
    Layer("estimation", "adaptive_quad", counters=(CALLS, EVALS)),
    Layer("estimation", "mc_estimate",
          counters=(CALLS, ("samples", lambda result: int(result.samples)))),
    Layer("estimation", "__init__", owner="RadialProposal", counters=(CALLS,), alias="init"),
    Layer("estimation", "sample_weighted", owner="RadialProposal",
          counters=(("draws", lambda result: int(np.size(result[0]))),)),
    Layer("geometry", "slice_cap_fraction", counters=(CALLS,)),
    Layer("geometry", "sample_uniform", counters=(SAMPLED,)),
    Layer("geometry", "sample_at_distance", counters=(SAMPLED,)),
    *(Layer("sets", "contains", owner=t, counters=(POINTS, HITS)) for t in SET_TYPES),
    *(Layer("sets", "boundary_distance", owner=t, counters=(POINTS,)) for t in SET_TYPES),
    Layer("integral_geometry", "sample_plane_batch",
          counters=(("planes", lambda result: int(result[0].shape[0])),)),
    Layer("integral_geometry", "crofton_estimate",
          counters=(CALLS, ("degenerate_resamples", lambda result: int(result.degenerate_resamples)))),
    Layer("integral_geometry", "bp_check",
          counters=(("planes", lambda result: int(result.plane_side.samples)),)),
)


def layer_metrics() -> list:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for quantity, _ in layer.counters:
            if quantity == "hits":
                out.append((f"{layer.name}.hit_frac", "frac"))
            else:
                out.append((f"{layer.name}.{quantity}", "count"))
        out.append((f"{layer.name}.self_s", "s"))
    return out


class Tracer:
    """Span recorder; install() patches the wrappers in, uninstall() undoes it."""

    def __init__(self):
        self.names = [layer.name for layer in LAYERS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = defaultdict(int)
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, index: int, layer: Layer, fn):
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts = self.counts
        hooks = [(f"{layer.name}.{q}", f) for q, f in layer.counters if f is not None]
        clock = time.perf_counter
        counting_evals = EVALS in layer.counters
        evals_key = f"{layer.name}.evals"

        def counted_integrand(f):
            def integrand(*args, **kwargs):
                counts[evals_key] += 1
                return f(*args, **kwargs)

            return integrand

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a graded call re-enters adaptive_quad with a substituted
            # integrand, which is counted there instead
            if counting_evals and kwargs.get("grading", args[4] if len(args) > 4 else None) is None:
                args = (counted_integrand(args[0]),) + args[1:]
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            for key, hook in hooks:
                counts[key] += hook(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spherefrac" or name.startswith("spherefrac.")]
        for index, layer in enumerate(LAYERS):
            module = sys.modules.get(f"spherefrac.{layer.module}")
            holder = module if layer.owner is None else getattr(module, layer.owner, None)
            original = None if holder is None else vars(holder).get(layer.attr)
            if not callable(original):
                self.missing.append(layer.name)
                continue
            wrapper = self._wrap(index, layer, original)
            if layer.owner is not None:
                self._patch(holder, layer.attr, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def mark(self) -> int:
        return len(self.span_name)

    def self_times(self, begin: int, end: int) -> dict:
        """Self seconds per layer over the spans recorded in [begin, end)."""
        # slices copy, so the arrays themselves never export a buffer and
        # can keep growing
        name = np.array(self.span_name[begin:end], dtype=np.int64)
        parent = np.array(self.span_parent[begin:end], dtype=np.int64)
        duration = np.array(self.span_end[begin:end]) - np.array(self.span_start[begin:end])
        local = parent - begin
        has_parent = local >= 0
        covered = np.bincount(local[has_parent], weights=duration[has_parent],
                              minlength=name.size)
        self_s = np.bincount(name, weights=duration - covered, minlength=len(LAYERS))
        return {f"{n}.self_s": float(v) for n, v in zip(self.names, self_s)}

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )


def round_metrics(counts: dict, self_times: dict) -> dict:
    """Per-layer metric values for one traced pass of a workload."""
    out = {}
    for name, _ in layer_metrics():
        if name.endswith(".hit_frac"):
            base = name[: -len(".hit_frac")]
            points = counts.get(f"{base}.points", 0)
            out[name] = counts.get(f"{base}.hits", 0) / points if points else 0.0
        elif name.endswith(".self_s"):
            out[name] = self_times.get(name, 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
