"""Per-layer spans for the traced benchmark run, recorded from outside the package.

Timing wrappers are bound over the module and class attributes the solver
calls through (`midasll1.solver.extrapolate`, `SagaState.estimate`, ...),
so no source file changes. Spans live in memory as flat arrays (name,
start, end, parent, computed bytes, computed flops); self times are derived
once the solve has finished.

Bytes and flops are computed from array shapes, not measured: a kernel's
bytes are its compulsory traffic (each operand element read once, each
result element written once) and its flops the textbook arithmetic of the
formula it evaluates.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Spans of one solve, appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes = array("d")
        self.flops = array("d")
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.bytes.append(0.0)
        self.flops.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.intp),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.intp),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "bytes": np.frombuffer(self.bytes),
            "flops": np.frombuffer(self.flops),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _traced(tracer: Tracer, name: str, fn, work):
    nid = tracer.name_id(name)
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        i = enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            leave(i)
        if work is not None:
            tracer.bytes[i], tracer.flops[i] = work(args, out)
        return out

    return functools.update_wrapper(wrapper, fn)


# -- computed work per call ------------------------------------------------

def _read_work(args, out):
    return float(os.path.getsize(args[0])), 0.0


def _gather_work(args, out):
    # the B x I_n gathered entries of X, read once and written once
    return 2.0 * out.nbytes, 0.0


def _sgd_work(args, out):
    # (A H^T H - X^T H) / (I_n B) with H: B x L, X rows: B x I_n, A: I_n x L
    b = args[2].size
    i, l = out.shape
    return 8.0 * (b * l + b * i + 2 * i * l), 2.0 * (b * l * l + i * l * l + b * i * l + i * l)


def _full_gradient_work(args, out):
    # the same formula over all J_n fibers, plus forming H (J_n x L products)
    n = args[1].size
    i, l = out.shape
    j = n // i
    return 8.0 * (n + 2 * i * l), 2.0 * (j * l * l + i * l * l + n * l + i * l) + j * l


def _objective_work(args, out):
    # reconstruct (slab products, then the mode-3 product) and the squared residual
    factors, t = args[0], args[1]
    i1, i2, i3 = t.dims
    widths = factors.ranks.L
    flops = sum(2 * i1 * i2 * w for w in widths) + 2 * i1 * i2 * len(widths) * i3 + 3 * t.size
    return 8.0 * t.size, float(flops)


def _warm_start_work(args, out):
    # the SAGA table and running means the warm start allocates
    nbytes = sum(g.nbytes for grads in out.table.values() for g in grads)
    nbytes += sum(m.nbytes for m in out.running_mean.values())
    return float(nbytes), 0.0


# (span name, defining module, attribute path, computed-work function)
HOOKS = (
    ("tensorfile.read_tensor", "midasll1.tensorfile", "read_tensor", _read_work),
    ("config.parse_config", "midasll1.config", "parse_config", None),
    ("solver.run", "midasll1.solver", "run", None),
    ("solver.palm_baseline", "midasll1.solver", "palm_baseline", None),
    ("solver.extrapolate", "midasll1.solver", "extrapolate", None),
    ("estimators.sgd_estimate", "midasll1.estimators", "sgd_estimate", _sgd_work),
    ("estimators.SagaState.estimate", "midasll1.estimators", "SagaState.estimate", None),
    ("estimators.SagaState.warm_start", "midasll1.estimators", "SagaState.warm_start", _warm_start_work),
    ("tensor.FiberBatch", "midasll1.tensor", "FiberBatch.__init__", None),
    ("tensor.gather_fiber_rows", "midasll1.tensor", "gather_fiber_rows", _gather_work),
    ("model.LL1Factors.with_factor", "midasll1.model", "LL1Factors.with_factor", None),
    ("model.build_H_rows", "midasll1.model", "build_H_rows", None),
    ("model.full_gradient", "midasll1.model", "full_gradient", _full_gradient_work),
    ("model.lipschitz_bound", "midasll1.model", "lipschitz_bound", None),
    ("model.objective", "midasll1.model", "objective", _objective_work),
    ("prox.prox", "midasll1.prox", "prox", None),
)

# layers reported as .calls and .self_s over the solve loop
LOOP_LAYERS = (
    "solver.extrapolate",
    "estimators.sgd_estimate",
    "estimators.SagaState.estimate",
    "tensor.FiberBatch",
    "tensor.gather_fiber_rows",
    "model.LL1Factors.with_factor",
    "model.build_H_rows",
    "model.full_gradient",
    "model.lipschitz_bound",
    "model.objective",
    "prox.prox",
)
# layers whose computed work is also reported, as (metric suffix, field)
WORK_LAYERS = {
    "estimators.sgd_estimate": ("bytes", "flops"),
    "tensor.gather_fiber_rows": ("bytes",),
    "model.full_gradient": ("bytes", "flops"),
    "model.objective": ("bytes", "flops"),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "midasll1" or name.startswith("midasll1."))]


class Hooks:
    """Binds timing wrappers over HOOKS while active; restores the originals on exit.

    A function is rebound in every package module that imported it by name,
    so `from .model import objective` call sites are covered. Targets that no
    longer exist are skipped and counted in `missing`.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for span, module_name, path, work in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(span)
                continue
            original = vars(owner)[attr]
            if owner_name:
                if isinstance(original, classmethod):
                    new = classmethod(_traced(self.tracer, span, original.__func__, work))
                else:
                    new = _traced(self.tracer, span, original, work)
                self._bind(owner, attr, new)
            else:
                new = _traced(self.tracer, span, original, work)
                for m in _package_modules():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._bind(m, key, new)
        return self

    def _bind(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def layer_metrics(tracer: Tracer, loop_start: float, solve_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced solve.

    `loop_start` is the solver's first clock call and `solve_s` the solve
    time the benchmark's clock measured from there to the solver's return.
    `.calls`, `.self_s` and the computed work cover the solve loop, from
    `loop_start` to the return of the top solver span; set-up shows in
    `solver.pre_loop_s` and the warm-start span. Self times assume that the
    spans nest, and `solver.loop_self_s` that the loop time from the spans is
    the solve time, so both are checked; a failed check raises.
    """
    s = tracer.arrays()
    n = s["name"].size
    dur = s["end"] - s["start"]
    _check_nesting(s)
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def first(span):
        hits = np.flatnonzero(s["name"] == ids[span]) if span in ids else []
        return int(hits[0]) if len(hits) else None

    top = next(
        i for i in (first("solver.run"), first("solver.palm_baseline")) if i is not None
    )
    top_end = s["end"][top]
    inside = np.zeros(n, dtype=bool)
    inside[top + 1:] = s["start"][top + 1:] < top_end  # spans after the top one are its descendants
    in_loop = inside & (s["start"] >= loop_start)
    loop_s = float(top_end - loop_start)
    if abs(loop_s - solve_s) > 1e-3 + 1e-3 * solve_s:
        raise RuntimeError(f"spans give a loop of {loop_s!r} s, the clock a solve of {solve_s!r} s")
    direct = in_loop & (s["parent"] == top)
    loop_self = loop_s - float(dur[direct].sum())

    out: dict[str, float] = {
        "tensorfile.read_tensor.s": _total(s, dur, ids, "tensorfile.read_tensor"),
        "tensorfile.read_tensor.bytes": _total(s, s["bytes"], ids, "tensorfile.read_tensor"),
        "config.parse_config.s": _total(s, dur, ids, "config.parse_config"),
        "solver.pre_loop_s": loop_start - s["start"][top],
        "solver.loop_s": loop_s,
        "solver.loop_self_s": loop_self,
        "estimators.SagaState.warm_start.s": _total(s, dur, ids, "estimators.SagaState.warm_start"),
        "estimators.saga_table_bytes": _total(s, s["bytes"], ids, "estimators.SagaState.warm_start"),
    }
    for layer in LOOP_LAYERS:
        mask = in_loop & (s["name"] == ids.get(layer, -1))
        out[f"{layer}.calls"] = float(mask.sum())
        out[f"{layer}.self_s"] = float(self_t[mask].sum())
        for field in WORK_LAYERS.get(layer, ()):
            out[f"{layer}.{field}"] = float(s[field][mask].sum())
    return out


def _check_nesting(s) -> None:
    """Raise unless every span lies within its parent and siblings do not overlap."""
    child = np.flatnonzero(s["parent"] >= 0)
    parent = s["parent"][child]
    outside = (s["start"][child] < s["start"][parent]) | (s["end"][child] > s["end"][parent])
    # spans are stored in start order, so a stable sort by parent lists siblings in order
    order = np.argsort(s["parent"], kind="stable")
    a, b = order[:-1], order[1:]
    overlap = (s["parent"][a] == s["parent"][b]) & (s["start"][b] < s["end"][a])
    if outside.any() or overlap.any():
        raise RuntimeError(
            f"spans do not nest: {int(outside.sum())} outside their parent, "
            f"{int(overlap.sum())} overlapping a sibling"
        )


def _total(s, values, ids, span) -> float:
    return float(values[s["name"] == ids.get(span, -1)].sum())
