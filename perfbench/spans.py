"""Span tracing from outside the program.

`Tracer.install()` wraps public functions of the affinewalk modules in
every namespace that binds them (a name imported by value, such as
`montecarlo.mat_pow_mod`, is a second binding of the same object), so
every call records a span: name, start, end, parent span, job id and a
few work counts read from the arguments and the result. `restore()`
puts the original objects back. Spans stay in memory until the pass
ends; `layer_metrics` turns them into per-layer self times and rates.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

MODULES = ("cli", "exactdist", "indexing", "fourier", "montecarlo", "spectral", "modmath")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Work counts are read from arguments and results after the span's end
# time is taken, so their cost lands in the parent span's self time. All
# are O(1) except _first_large_work, whose two passes over the result
# (about 0.15 ms at 200,000 rows) count toward its caller,
# fourier.orbit_constant_report.
def _states_of_cfg(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"states": cfg.p ** cfg.d, "d": cfg.d, "key": hash((cfg.T.entries, cfg.p))}


def _states_of_dist(args, kwargs, result):
    P = args[0]
    return {"states": P.p ** P.d}


def _mixing_work(args, kwargs, result):
    cfg = args[0]
    return {"char_steps": cfg.p ** cfg.d * result}


def _bound_series_work(args, kwargs, result):
    cfg = args[0]
    n_values = _arg(args, kwargs, 1, "n_values")
    return {"char_steps": cfg.p ** cfg.d * max(n_values, default=0)}


def _first_large_work(args, kwargs, result):
    # the loop evaluates every row once per ell until none is alive
    rows = int(result.shape[0])
    if rows == 0:
        return {"char_iters": 0}
    if (result >= 0).all():
        iters = int(result.max()) + 1
    else:
        cfg = args[0]
        ell_max = _arg(args, kwargs, 3, "ell_max")
        if ell_max is None:
            ell_max = sys.modules["affinewalk.fourier"].default_ell_max(cfg.p)
        iters = ell_max + 1
    return {"char_iters": rows * iters}


def _simulate_work(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    samples = _arg(args, kwargs, 2, "samples")
    return {"sample_steps": n * samples}


def _projected_search_work(args, kwargs, result):
    return {"p": _arg(args, kwargs, 1, "p"), "n_mix": result}


def _projection_work(args, kwargs, result):
    return {"m": result.m}


def _projected_walk_work(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    blocks = _arg(args, kwargs, 2, "blocks")
    return {"block_residues": blocks * cfg.p}


def _mixing_name(args, kwargs):
    method = _arg(args, kwargs, 2, "method", "exact")
    return "fourier.ub_search" if method == "ub" else "fourier.exact_search"


# (module, attribute, span name or name function, work function)
TARGETS: tuple[tuple[str, str, object, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("exactdist", "step_exact", "exactdist.step_exact", _states_of_cfg),
    ("exactdist", "tv_from_uniform", "exactdist.tv_from_uniform", _states_of_dist),
    ("indexing", "all_coords", "indexing.all_coords", None),
    ("indexing", "encode", "indexing.encode", None),
    ("fourier", "mixing_time", _mixing_name, _mixing_work),
    ("fourier", "bound_series", "fourier.bound_series", _bound_series_work),
    ("fourier", "step_factor_table", "fourier.step_factor_table", None),
    ("fourier", "transpose_perm", "fourier.transpose_perm", None),
    ("fourier", "BoundSeries.to_csv", "fourier.to_csv", None),
    ("fourier", "first_large_sweep", "fourier.first_large_sweep", _first_large_work),
    ("fourier", "orbit_analysis", "fourier.orbit_analysis", None),
    ("fourier", "orbit_constant_report", "fourier.orbit_constant_report", None),
    ("montecarlo", "simulate", "montecarlo.simulate", _simulate_work),
    ("montecarlo", "TrajectoryBatch.states_csv", "montecarlo.states_csv", None),
    ("montecarlo", "empirical_tv", "montecarlo.empirical_tv", None),
    ("montecarlo", "projected_mixing_time", "montecarlo.projected_search", _projected_search_work),
    ("montecarlo", "projected_walk_dist", "montecarlo.projected_walk_dist", _projected_walk_work),
    ("montecarlo", "projection_functional", "montecarlo.projection_functional", _projection_work),
    ("montecarlo", "scaling_sweep", "montecarlo.scaling_sweep", None),
    ("montecarlo", "sweep_csv", "montecarlo.sweep_csv", None),
    ("spectral", "classify", "spectral.classify", None),
    ("spectral", "complex_roots", "spectral.complex_roots", None),
    ("spectral", "cyclotomic_order", "spectral.cyclotomic_order", None),
    ("modmath", "is_admissible", "modmath.is_admissible", None),
    ("modmath", "mat_pow_mod", "modmath.mat_pow_mod", None),
    ("modmath", "nullspace_mod_prime", "modmath.nullspace_mod_prime", None),
    ("modmath", "is_prime", "modmath.is_prime", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, work):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(span_name, time.perf_counter(), 0.0, parent, tracer.job)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        """Wrap every target in every affinewalk namespace that binds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "affinewalk" or key.startswith("affinewalk."))
        ]
        for mod_name, attr, name, work in TARGETS:
            module = sys.modules[f"affinewalk.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, work))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Put back every original object the wrappers replaced."""
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def tail_value(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves at least
    ten samples above it; (0, 0) when there are fewer than eleven."""
    n = len(samples)
    if n < 11:
        return 0.0, 0.0
    ordered = sorted(samples)
    rank = n - 11
    return 100.0 * (rank + 1) / n, ordered[rank]


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose jobs took wall_s."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def work(name, key):
        return sum(spans[i].work.get(key, 0) for i in by_name.get(name, ()))

    def rate_ns(seconds, count):
        return 1e9 * seconds / count if count else 0.0

    m: dict[str, float] = {"cli.self_s": total("cli.main")}

    step = by_name.get("exactdist.step_exact", [])
    m["exactdist.step_exact.calls"] = len(step)
    m["exactdist.step_exact.self_s"] = total("exactdist.step_exact")
    seen_keys = set()
    first_s = 0.0
    steady: dict[int, list[int]] = {2: [], 3: []}
    for i in step:
        key = spans[i].work.get("key")
        if key is None:  # the call raised
            continue
        if key not in seen_keys:
            seen_keys.add(key)
            first_s += spans[i].end - spans[i].start
        elif spans[i].work["d"] in steady:
            steady[spans[i].work["d"]].append(i)
    for d, idx in steady.items():
        m[f"exactdist.step_exact.ns_per_state.d{d}"] = rate_ns(
            sum(selfs[i] for i in idx), sum(spans[i].work["states"] for i in idx)
        )
    m["exactdist.step_exact.first_call_s"] = first_s
    call_ms = [1e3 * (spans[i].end - spans[i].start) for i in step]
    m["exactdist.step_exact.call_ms.median"] = statistics.median(call_ms) if call_ms else 0.0
    m["exactdist.step_exact.call_ms.tail"] = tail_value(call_ms)[1]

    m["exactdist.tv_from_uniform.self_s"] = total("exactdist.tv_from_uniform")
    m["exactdist.tv_from_uniform.ns_per_state"] = rate_ns(
        total("exactdist.tv_from_uniform"), work("exactdist.tv_from_uniform", "states")
    )

    m["indexing.all_coords.calls"] = calls("indexing.all_coords")
    m["indexing.all_coords.self_s"] = total("indexing.all_coords")
    m["indexing.encode.self_s"] = total("indexing.encode")

    m["fourier.ub_search.self_s"] = total("fourier.ub_search")
    m["fourier.ub_search.char_steps"] = work("fourier.ub_search", "char_steps")
    m["fourier.ub_search.ns_per_char_step"] = rate_ns(
        total("fourier.ub_search"), work("fourier.ub_search", "char_steps")
    )
    m["fourier.exact_search.self_s"] = total("fourier.exact_search")
    m["fourier.bound_series.self_s"] = total("fourier.bound_series")
    m["fourier.bound_series.ns_per_char_step"] = rate_ns(
        total("fourier.bound_series"), work("fourier.bound_series", "char_steps")
    )
    for name in ("step_factor_table", "transpose_perm", "to_csv", "orbit_analysis"):
        m[f"fourier.{name}.self_s"] = total(f"fourier.{name}")
    m["fourier.first_large_sweep.self_s"] = total("fourier.first_large_sweep")
    m["fourier.first_large_sweep.char_iters"] = work("fourier.first_large_sweep", "char_iters")
    m["fourier.first_large_sweep.ns_per_char_iter"] = rate_ns(
        total("fourier.first_large_sweep"), work("fourier.first_large_sweep", "char_iters")
    )

    m["montecarlo.simulate.self_s"] = total("montecarlo.simulate")
    m["montecarlo.simulate.sample_steps"] = work("montecarlo.simulate", "sample_steps")
    m["montecarlo.simulate.ns_per_sample_step"] = rate_ns(
        total("montecarlo.simulate"), work("montecarlo.simulate", "sample_steps")
    )
    m["montecarlo.states_csv.self_s"] = total("montecarlo.states_csv")
    m["montecarlo.empirical_tv.self_s"] = total("montecarlo.empirical_tv")

    # blocks searched = n_mix / m, m from the search's projection child span
    order = {spans[j].parent: spans[j].work.get("m")
             for j in by_name.get("montecarlo.projection_functional", [])}
    blocks = residues = 0
    for i in by_name.get("montecarlo.projected_search", []):
        w = spans[i].work
        if w and order.get(i):  # calls that raised carry no work counts
            b = w["n_mix"] // order[i]
            blocks += b
            residues += b * w["p"]
    m["montecarlo.projected_search.self_s"] = total("montecarlo.projected_search")
    m["montecarlo.projected_search.blocks"] = blocks
    m["montecarlo.projected_search.ns_per_block_residue"] = rate_ns(
        total("montecarlo.projected_search"), residues
    )
    m["montecarlo.projected_walk_dist.self_s"] = total("montecarlo.projected_walk_dist")
    m["montecarlo.projected_walk_dist.ns_per_block_residue"] = rate_ns(
        total("montecarlo.projected_walk_dist"),
        work("montecarlo.projected_walk_dist", "block_residues"),
    )
    m["montecarlo.projection_functional.self_s"] = total("montecarlo.projection_functional")
    m["montecarlo.scaling_sweep.self_s"] = total("montecarlo.scaling_sweep")

    m["spectral.classify.calls"] = calls("spectral.classify")
    for name in ("classify", "complex_roots", "cyclotomic_order"):
        m[f"spectral.{name}.self_s"] = total(f"spectral.{name}")

    m["modmath.is_admissible.calls"] = calls("modmath.is_admissible")
    for name in ("is_admissible", "mat_pow_mod", "nullspace_mod_prime", "is_prime"):
        m[f"modmath.{name}.self_s"] = total(f"modmath.{name}")

    module_self = dict.fromkeys(MODULES, 0.0)
    for span, s in zip(spans, selfs):
        module_self[span.name.split(".")[0]] += s
    for mod in MODULES:
        m[f"{mod}.share"] = module_self[mod] / wall_s if wall_s > 0 else 0.0
    return m
