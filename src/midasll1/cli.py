"""Command-line driver: decompose, synth, metrics, bench.

Environment:
    MIDAS_THREADS        cap internal kernel (BLAS) parallelism
    MIDAS_VIRTUAL_CLOCK  when set to 1, trace elapsed_s counts epochs instead
                         of wall time, making trace files fully reproducible
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _thread_cap
from . import config as cfgmod
from . import metrics as metricsmod
from . import tensorfile
from .model import LL1Factors, RankVector, reconstruct
from .solver import SolverAbort, als_mu_baseline, palm_baseline, run
from .synth import generate
from .tensor import DenseTensor3

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NAN_ABORT = 3


def _apply_thread_cap(cap: int):
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return  # the env-var fallback was applied on import (midasll1/__init__.py)
    threadpool_limits(limits=cap)


def _make_clock():
    if os.environ.get("MIDAS_VIRTUAL_CLOCK") == "1":
        counter = itertools.count()
        return lambda: float(next(counter))
    return time.perf_counter


def _write_trace(path: Path, trace):
    with open(path, "w", newline="") as fh:
        fh.write("epoch,iter,phi,f,elapsed_s,step_norm,lyapunov_surrogate\n")
        for i in range(len(trace)):
            ly = "" if trace.lyapunov[i] is None else repr(trace.lyapunov[i])
            fh.write(
                f"{trace.epoch[i]},{trace.iteration[i]},{trace.phi[i]!r},"
                f"{trace.f[i]!r},{trace.elapsed_s[i]!r},{trace.step_norm[i]!r},{ly}\n"
            )


def _write_factors(out: Path, factors: LL1Factors):
    tensorfile.write_matrix(out / "A1.dmat", factors.A1)
    tensorfile.write_matrix(out / "A2.dmat", factors.A2)
    tensorfile.write_matrix(out / "A3.dmat", factors.A3)
    (out / "ranks.txt").write_text(",".join(str(v) for v in factors.ranks.L) + "\n")


def _read_factors(path: Path) -> LL1Factors:
    ranks = RankVector(
        tuple(int(v) for v in (path / "ranks.txt").read_text().strip().split(","))
    )
    return LL1Factors(
        tensorfile.read_matrix(path / "A1.dmat"),
        tensorfile.read_matrix(path / "A2.dmat"),
        tensorfile.read_matrix(path / "A3.dmat"),
        ranks,
    )


def _load_tensor(path: str) -> DenseTensor3:
    if path.endswith(".csv"):
        return tensorfile.read_tensor_csv(path)
    return tensorfile.read_tensor(path)


def _solve_into(out: Path, solve, cfg, tensor: DenseTensor3, clock):
    """Run `solve(cfg, tensor)` and write its factors (`A*.dmat`, `ranks.txt`),
    `trace.csv` and `metrics.txt` into `out`; returns the trace and the
    metric report."""
    factors, trace = solve(cfg, tensor, clock=clock)
    _write_factors(out, factors)
    _write_trace(out / "trace.csv", trace)
    rep = metricsmod.report(tensor, reconstruct(factors))
    (out / "metrics.txt").write_text(metricsmod.format_report(rep) + "\n")
    return trace, rep


def cmd_decompose(args) -> int:
    try:
        tensor = _load_tensor(args.tensor)
        cfg = cfgmod.parse_config(Path(args.config).read_text())
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except (tensorfile.FormatError, cfgmod.ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(cfgmod.serialize_config(cfg))
    try:
        _solve_into(out, run, cfg, tensor, _make_clock())
    except SolverAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NAN_ABORT
    return EXIT_OK


def cmd_synth(args) -> int:
    dims = tuple(int(v) for v in args.dims.split(","))
    ranks = RankVector(tuple(int(v) for v in args.ranks.split(",")))
    snr = math.inf if args.snr_db.lower() in ("inf", "infinity") else float(args.snr_db)
    tensor, truth = generate(dims, ranks, snr, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tensorfile.write_tensor(out, tensor)
    truth_dir = out.parent / (out.name + ".truth")
    truth_dir.mkdir(exist_ok=True)
    _write_factors(truth_dir, truth)
    print(f"wrote {out} ({dims[0]}x{dims[1]}x{dims[2]}) and {truth_dir}/")
    return EXIT_OK


def cmd_metrics(args) -> int:
    try:
        tensor = _load_tensor(args.tensor)
        factors = _read_factors(Path(args.factors))
    except (tensorfile.FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if factors.dims != tensor.dims:
        print(
            f"error: factor dims {factors.dims} do not match tensor {tensor.dims}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    rep = metricsmod.report(tensor, reconstruct(factors))
    if args.csv:
        print("psnr_db,rmse,sam_rad,cc")
        print(f"{rep.psnr!r},{rep.rmse!r},{rep.sam!r},{rep.cc!r}")
    else:
        print(metricsmod.format_report(rep))
    return EXIT_OK


def _parse_grid(text: str):
    """Bench grid file -> cells [(name, solver function, SolverConfig)].

    Plain keys form the base config; `grid_estimators` x `grid_t` give the
    stochastic cells and `grid_baselines` the baseline cells, which run
    `baseline_iters` epochs when set.  Every cell's config is checked here,
    so a bad value is a ConfigError before anything runs or is written.
    """
    grid_lines, base_lines = [], []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("grid_") or stripped.startswith("baseline_iters"):
            grid_lines.append(stripped)
        else:
            base_lines.append(raw)
    base = cfgmod.parse_config("\n".join(base_lines))
    estimators, t_values, baselines = [], [], []
    baseline = base
    for line in grid_lines:
        key, _, val = (s.strip() for s in line.partition("="))
        try:
            if key == "grid_estimators":
                estimators = [v.strip() for v in val.split(",") if v.strip()]
                for est in estimators:
                    replace(base, estimator=est)  # SolverConfig rejects a bad value
            elif key == "grid_t":
                t_values = [int(v) for v in val.split(",")]
                for t in t_values:
                    replace(base, t=t)  # SolverConfig rejects a bad value
            elif key == "grid_baselines":
                baselines = [v.strip() for v in val.split(",") if v.strip()]
                unknown = [name for name in baselines if name not in _BASELINES]
                if unknown:
                    raise ValueError(f"unknown baseline {unknown[0]!r}")
            elif key == "baseline_iters":
                baseline = replace(base, epochs=int(val))
            else:
                raise ValueError("unknown grid key")
        except ValueError as exc:
            raise cfgmod.ConfigError(f"{key}: {exc}") from None
    cells = [
        (f"{est}-t{t}", run, replace(base, estimator=est, t=t))
        for est in estimators or [base.estimator]
        for t in t_values or [base.t]
    ]
    cells += [(name, _BASELINES[name], baseline) for name in baselines]
    return cells


_BASELINES = {"palm": palm_baseline, "alsmu": als_mu_baseline}


def cmd_bench(args) -> int:
    try:
        tensor = _load_tensor(args.tensor)
        cells = _parse_grid(Path(args.grid).read_text())
    except (tensorfile.FormatError, cfgmod.ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clock = _make_clock()
    rows = []
    for cell, solve, cfg in cells:
        cell_dir = out / cell
        cell_dir.mkdir(exist_ok=True)
        start = time.perf_counter()
        try:
            trace, rep = _solve_into(cell_dir, solve, cfg, tensor, clock)
        except Exception as exc:  # per-cell failures must not kill the grid
            rows.append((cell, "", "", "", "", f"failed: {exc}"))
            print(f"cell {cell} failed: {exc}", file=sys.stderr)
            continue
        wall = time.perf_counter() - start
        final_f = trace.f[-1] if len(trace) else ""
        final_phi = trace.phi[-1] if len(trace) else ""
        rows.append((cell, repr(final_f), repr(final_phi), repr(rep.psnr), repr(wall), "ok"))
    with open(out / "summary.csv", "w", newline="") as fh:
        fh.write("cell,final_f,final_phi,psnr_db,wall_s,status\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="midasll1",
        description="Rank-(Lr,Lr,1) block-term tensor decomposition toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="run the solver on a tensor file")
    d.add_argument("--tensor", required=True)
    d.add_argument("--config", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--seed", type=int, default=None, help="override config seed")
    d.set_defaults(func=cmd_decompose)

    s = sub.add_parser("synth", help="generate an exact-rank synthetic tensor")
    s.add_argument("--dims", required=True, help="I1,I2,I3")
    s.add_argument("--ranks", required=True, help="comma list of block widths")
    s.add_argument("--snr-db", default="inf")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    m = sub.add_parser("metrics", help="score stored factors against a tensor")
    m.add_argument("--tensor", required=True)
    m.add_argument("--factors", required=True)
    m.add_argument("--csv", action="store_true")
    m.set_defaults(func=cmd_metrics)

    b = sub.add_parser("bench", help="run an estimator/depth grid plus baselines")
    b.add_argument("--tensor", required=True)
    b.add_argument("--grid", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    raw_cap = os.environ.get("MIDAS_THREADS")
    cap = _thread_cap(raw_cap)
    if raw_cap and cap is None:
        print(f"error: MIDAS_THREADS must be a positive integer, got {raw_cap!r}", file=sys.stderr)
        return EXIT_PARSE
    if cap is not None:
        _apply_thread_cap(cap)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
