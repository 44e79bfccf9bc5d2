"""Measuring process of the benchmark; started by run.py, one per run.

It reads the list of instances run.py wrote (`--instances`), and solves each
the way `midasll1 decompose` does: read_tensor -> parse_config -> solver. It
never generates data, so its peak RSS is that of reading and solving.
Progress goes to stderr; the last stdout line is `{"result": {...}}`.
"""

from __future__ import annotations

import workloads

workloads.pin_threads()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

workloads.load_midasll1()
from midasll1 import tensorfile  # noqa: E402

# set-up-only solves (no epochs) per instance in an untraced run, next to the
# set-up of the full solve, so that `setup_s` is a median over many samples
SETUP_SAMPLES = 4
# untraced solves time the reference kernel at least this often (seconds)
CALIBRATE_EVERY_S = 0.4
# end-to-end times are given in seconds of a host on which one run of the
# reference kernel takes this long (its median on the host in NOTES.md)
REF_NOMINAL_S = 0.015


class ReferenceKernel:
    """Fixed work of the benchmark's own, timed next to the solver to track host speed.

    On a shared host the speed of one core can swing by up to 2x within a
    minute, so a solve's wall time says as much about the host as about the
    program. The kernel does the same kinds of work as the solver: a
    Python loop of small numpy calls on fiber-sized rows of a 4 MB tensor (the
    stochastic step) and a mode unfolding copy with a matrix product (the full
    gradient). It never calls the package, so no change to the program moves it.
    """

    STEPS = 400

    def __init__(self):
        rng = np.random.default_rng(20250108)
        self.x = rng.random((100, 100, 50))
        self.h = rng.random((5000, 12))
        self.a = rng.random((8, 12))
        self.b = rng.random((12, 50))
        self.rows = rng.integers(0, 100, size=(self.STEPS, 8))
        # the unfolding is copied into a buffer allocated once, so that the
        # kernel adds a constant to the peak RSS, never a transient
        self.unfolded = np.empty((100, 100, 50))
        self.sink = 0.0
        self()  # warm-up: first-touch page faults are not host speed

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t = time.perf_counter()
        s = 0.0
        for idx in self.rows:
            fibers = self.x[idx].reshape(8, -1)
            s += float(fibers[:, :50].sum()) + float((self.a @ self.b).sum())
        np.copyto(self.unfolded, self.x.transpose(1, 0, 2))
        s += float((self.unfolded.reshape(100, -1) @ self.h).sum())
        self.sink = s
        return time.perf_counter() - t


class SolveClock:
    """The clock the benchmark injects into the solver.

    It reads perf_counter and remembers its first call, the solver's loop
    start. With a reference kernel it also times the kernel at that first
    call, and again at any later call made `CALIBRATE_EVERY_S` or more after
    the previous one (the solver calls it once per epoch or sweep), always
    after taking its reading; the kernel's time is left out of every later
    reading, so the solver's elapsed times do not include it.
    `nominal(a, b)` converts the wall time between two readings to seconds on
    a host where the kernel takes `REF_NOMINAL_S`, scaling each stretch
    between two kernel runs by the mean of the two.
    """

    def __init__(self, kernel: ReferenceKernel | None = None):
        self.kernel = kernel
        self.paused = 0.0
        self.first = None
        self.marks: list[tuple[float, float]] = []  # (reading, kernel time right after it)

    def mark(self) -> float:
        """Take a reading and, with a kernel, time the kernel right after it."""
        t = time.perf_counter() - self.paused
        if self.kernel is not None:
            self._time_kernel(t)
        return t

    def __call__(self) -> float:
        t = time.perf_counter() - self.paused
        first = self.first is None
        if first:
            self.first = t
        if self.kernel is not None and (first or t - self.marks[-1][0] >= CALIBRATE_EVERY_S):
            self._time_kernel(t)
        return t

    def _time_kernel(self, reading: float) -> None:
        self.marks.append((reading, self.kernel()))
        self.paused = time.perf_counter() - reading

    def nominal(self, a: float, b: float) -> float:
        if self.kernel is None:
            return b - a
        total = 0.0
        for (t0, r0), (t1, r1) in zip(self.marks, self.marks[1:]):
            overlap = min(b, t1) - max(a, t0)
            if overlap > 0:
                total += overlap * REF_NOMINAL_S / (0.5 * (r0 + r1))
        return total


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def machine_record() -> dict:
    np.dot(np.ones((256, 256)), np.ones((256, 256)))  # let BLAS start its threads, if any
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": thread_count(),
        "thread_pin": workloads.THREAD_PIN,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM).

    Not `ru_maxrss`: that keeps the peak of the parent, which generated the
    instances, through fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def solve(w: workloads.Workload, inst: dict, config_path: str, require_target: bool = True,
          kernel: ReferenceKernel | None = None) -> dict:
    """One solver run on `inst`; returns its timings and the problems the gate found.

    With a reference kernel, the times are converted to the nominal host
    (`SolveClock.nominal`); without one they are wall times as read.
    """
    n_entries = math.prod(w.dims)
    f_stop = (w.target * inst["norm"]) ** 2 / (2 * n_entries)
    clock = SolveClock(kernel)
    t0 = clock.mark()
    tensor = tensorfile.read_tensor(inst["tensor"])
    sc = w.solver_config(Path(config_path).read_text())
    # stop at the end of the first epoch with rel. residual <= target (reg is nonneg, so phi = f)
    sc = dataclasses.replace(sc, abs_tol=f_stop)
    factors, trace = w.solver_entry()(sc, tensor, clock=clock)
    t_end = clock.mark()

    rel = [math.sqrt(2 * n_entries * f) / inst["norm"] for f in trace.f]
    hit = next((k for k, r in enumerate(rel) if r <= w.target), None)
    problems = []
    for n, a in enumerate((factors.A1, factors.A2, factors.A3), start=1):
        if not np.isfinite(a).all():
            problems.append(f"A{n} has non-finite entries")
        elif (a < 0).any():
            problems.append(f"A{n} has negative entries")
    if hit is None and require_target:
        final = f"{rel[-1]:.4g}" if rel else "none"
        problems.append(f"final rel. residual {final} above target {w.target}")
    iterations = trace.iteration[-1] if len(trace) else 0
    first = clock.first
    out = {
        "f": trace.f,
        "problems": problems,
        "loop_start": first,
        "solve_s": t_end - first,
        "raw_us_per_iter": 1e6 * (t_end - first) / max(iterations, 1),
        "setup_s": clock.nominal(t0, first),
        "iterations": iterations,
        "us_per_iter": 1e6 * clock.nominal(first, t_end) / max(iterations, 1),
        "final_rel_residual": rel[-1] if rel else math.nan,
        "kernel_s": [r for _, r in clock.marks],
    }
    if hit is not None:
        out["time_to_target_s"] = clock.nominal(t0, first + trace.elapsed_s[hit])
        out["raw_time_to_target_s"] = first - t0 + trace.elapsed_s[hit]
        out["epochs_to_target"] = trace.epoch[hit]
    return out


class Run:
    def __init__(self, w: workloads.Workload, traced: bool):
        self.w = w
        self.traced = traced
        # untraced runs report host-normalised times; traced runs raw ones
        self.kernel = None if traced else ReferenceKernel()
        self.kernel_s: list[float] = []  # every timing of the kernel
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.solves: list[dict] = []  # untraced, passed the gate
        self.setups: list[float] = []  # set-up times of untraced solves
        self.layers: list[dict] = []  # traced
        self.spans: tracing.Tracer | None = None  # of the last traced solve

    def attempt(self, label: str, fn):
        self.attempted += 1
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = {"problems": [f"{type(exc).__name__}: {exc}"]}
        if out["problems"]:
            self.failed += 1
            self.errors.extend(f"{label}: {p}" for p in out["problems"])
            return None
        return out

    def traced_solve(self, inst: dict, untraced: dict) -> dict:
        tracer = tracing.Tracer()
        with tracing.Hooks(tracer) as hooks:
            out = solve(self.w, inst, inst["full"])
        if bits(out["f"]) != bits(untraced["f"]):
            out["problems"].append("traced f trace differs from the untraced one")
            return out
        layer = tracing.layer_metrics(tracer, out["loop_start"], out["solve_s"])
        layer["solver.iterations"] = out["iterations"]
        layer["solver.epochs_to_target"] = out.get("epochs_to_target", math.nan)
        layer["trace.overhead_us_per_iter"] = out["us_per_iter"] - untraced["us_per_iter"]
        layer["trace.hooks_missing"] = len(hooks.missing)
        out["layer"] = layer
        self.spans = tracer
        return out

    def execute(self, instances: list[dict], budget: float) -> None:
        start = time.perf_counter()
        cycle: list[float] = []
        for index, inst in enumerate(instances):
            left = len(instances) - index
            if cycle and time.perf_counter() - start + max(cycle) > budget:
                self.attempted += left
                self.failed += left
                self.errors.append(f"out of time: {left} of {len(instances)} instances not solved")
                break
            t_cycle = time.perf_counter()
            if index == 0:
                # warm-up, and the determinism check: a repeated run of the
                # same seed must reproduce the f trace bit for bit
                prefix = self.attempt("prefix", lambda: solve(self.w, inst, inst["prefix"], False))
            full = self.attempt(f"instance {index}",
                                lambda: solve(self.w, inst, inst["full"], kernel=self.kernel))
            if full is not None:
                self.solves.append(full)
                self.setups.append(full["setup_s"])
                self.kernel_s.extend(full["kernel_s"])
                if index == 0 and prefix is not None:
                    k = len(prefix["f"])
                    if bits(prefix["f"]) != bits(full["f"][:k]):
                        self.failed += 1
                        self.errors.append("repeated run of instance 0 gave a different f trace")
                if self.traced:
                    out = self.attempt(f"instance {index} traced", lambda: self.traced_solve(inst, full))
                    if out is not None:
                        self.layers.append(out["layer"])
                else:
                    for _ in range(SETUP_SAMPLES):
                        out = self.attempt(f"instance {index} set-up",
                                           lambda: solve(self.w, inst, inst["setup"], False, self.kernel))
                        if out is not None:
                            self.setups.append(out["setup_s"])
                            self.kernel_s.extend(out["kernel_s"])
            cycle.append(time.perf_counter() - t_cycle)
            if full is not None:
                print(f"{self.w.name}: instance {index}: {full['epochs_to_target']} epochs, "
                      f"{full['time_to_target_s']:.3f} s to target ({full['raw_time_to_target_s']:.3f} s wall), "
                      f"{full['us_per_iter']:.1f} us/iter ({full['raw_us_per_iter']:.1f} wall), "
                      f"{cycle[-1]:.2f} s in all", file=sys.stderr, flush=True)

    def result(self, machine: dict) -> dict:
        metrics = {}
        if self.traced:
            for name in self.layers[0] if self.layers else ():
                metrics[name] = statistics.median(m[name] for m in self.layers)
        else:
            # time to target is a mean: its spread over instances is that of
            # their epoch counts (12 to 31 on mid_saga), and the median of a
            # few such values jumps between them from seed to seed
            for name, average in (("time_to_target_s", statistics.fmean),
                                  ("us_per_iter", statistics.median),
                                  ("final_rel_residual", statistics.median)):
                values = [s[name] for s in self.solves if name in s]
                metrics[name] = average(values) if values else None
            metrics["setup_s"] = statistics.median(self.setups) if self.setups else None
            metrics["peak_rss_mb"] = peak_rss_mb()
        return {
            "correct": self.failed == 0 and bool(self.solves) and (bool(self.layers) or not self.traced),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": metrics,
            "machine": machine,
            "solves": len(self.solves),
            "kernel_s": statistics.median(self.kernel_s) if self.kernel_s else None,
            "kernel_runs": len(self.kernel_s),
        }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--instances", required=True, help="JSON list written by run.py")
    p.add_argument("--budget", type=float, required=True, help="seconds to solve them in")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()

    machine = machine_record()
    if machine["threads"] > workloads.THREAD_PIN:
        print(f"measure: {machine['threads']} threads running, pinned to {workloads.THREAD_PIN}",
              file=sys.stderr)
        return 1

    run = Run(workloads.WORKLOADS[args.workload], bool(args.trace))
    run.execute(json.loads(Path(args.instances).read_text()), args.budget)
    machine["threads_after"] = thread_count()
    if machine["threads_after"] > workloads.THREAD_PIN:
        run.failed += 1
        run.errors.append(f"{machine['threads_after']} threads after the run, pinned to {workloads.THREAD_PIN}")
    if args.spans_out and run.spans is not None:
        run.spans.save(args.spans_out)
    print(json.dumps({"result": run.result(machine)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
