"""Command-line driver: decompose, synth, metrics, bench.

Environment:
    MIDAS_THREADS        cap internal kernel (BLAS) parallelism
    MIDAS_VIRTUAL_CLOCK  when set to 1, trace elapsed_s counts epochs instead
                         of wall time, making trace files fully reproducible
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

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


class InputError(Exception):
    """A command's inputs (files, flags, config) could not be read or parsed."""


@contextlib.contextmanager
def _reading_inputs():
    """Re-raise a failure to read or parse inputs as an `InputError` (exit 2);
    `FormatError` and `ConfigError` are `ValueError`s."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _make_clock():
    if os.environ.get("MIDAS_VIRTUAL_CLOCK") == "1":
        counter = itertools.count()
        return lambda: float(next(counter))
    return time.perf_counter


def _write_csv(fh, header: str, rows):
    """The comma-separated `header` and `rows` of Python values to `fh`: a float
    is written as its repr, None as an empty field, and a field with a comma
    (a failure message) is quoted."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)


def _write_trace(path: Path, trace):
    columns = zip(trace.epoch, trace.iteration, trace.phi, trace.f, trace.elapsed_s,
                  trace.step_norm, trace.step_sizes, trace.mode_counts)
    with open(path, "w", newline="") as fh:
        _write_csv(fh, "epoch,iter,phi,f,elapsed_s,step_norm,eta_1,eta_2,eta_3,n_1,n_2,n_3",
                   ((*head, *etas, *counts) for *head, etas, counts in columns))


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
    with _reading_inputs():
        tensor = _load_tensor(args.tensor)
        cfg = cfgmod.parse_config(Path(args.config).read_text())
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(cfgmod.serialize_config(cfg))
    _solve_into(out, run, cfg, tensor, _make_clock())
    return EXIT_OK


_MAX_SNR_DB = 1000


def _positive_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise ValueError(f"{flag} must be comma-separated positive integers, got {text!r}")
    return values


def _synth_inputs(args):
    """(dims, ranks, SNR in dB) from the `synth` flags; a ValueError names the flag."""
    dims = _positive_ints("--dims", args.dims)
    if len(dims) != 3:
        raise ValueError(f"--dims must give 3 dimensions, got {args.dims!r}")
    ranks = RankVector(_positive_ints("--ranks", args.ranks))
    try:
        snr = float(args.snr_db)  # also reads inf and infinity, in any case
    except ValueError:
        snr = math.nan
    # past +-1000 dB the noise is 50 orders of magnitude off the signal, and
    # far enough past it the noise scale or the noisy tensor is not finite
    if not (abs(snr) <= _MAX_SNR_DB or snr == math.inf):
        raise ValueError(
            f"--snr-db must be inf or a number from -{_MAX_SNR_DB} to {_MAX_SNR_DB}, "
            f"got {args.snr_db!r}"
        )
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return dims, ranks, snr


def cmd_synth(args) -> int:
    with _reading_inputs():
        dims, ranks, snr = _synth_inputs(args)
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
    with _reading_inputs():
        tensor = _load_tensor(args.tensor)
        factors = _read_factors(Path(args.factors))
    if factors.dims != tensor.dims:  # both inputs read but do not fit: exit 1, not 2
        raise ValueError(f"factor dims {factors.dims} do not match tensor {tensor.dims}")
    rep = metricsmod.report(tensor, reconstruct(factors))
    if args.csv:
        _write_csv(sys.stdout, "psnr_db,rmse,sam_rad,cc", [(rep.psnr, rep.rmse, rep.sam, rep.cc)])
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
    for lineno, key, val in cfgmod.scan_lines(text):
        is_grid = key.startswith("grid_") or key == "baseline_iters"
        (grid_lines if is_grid else base_lines).append((lineno, key, val))
    base = cfgmod.config_from_lines(base_lines)
    estimators, t_values, baselines = [], [], []
    baseline = base
    for lineno, key, val in grid_lines:
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
            raise cfgmod.ConfigError(f"line {lineno}: {key}: {exc}") from None
    cells = [
        (f"{est}-t{t}", run, replace(base, estimator=est, t=t))
        for est in estimators or [base.estimator]
        for t in t_values or [base.t]
    ]
    cells += [(name, _BASELINES[name], baseline) for name in baselines]
    return cells


_BASELINES = {"palm": palm_baseline, "alsmu": als_mu_baseline}


def cmd_bench(args) -> int:
    with _reading_inputs():
        tensor = _load_tensor(args.tensor)
        cells = _parse_grid(Path(args.grid).read_text())
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
            rows.append((cell, None, None, None, None, f"failed: {exc}", None, None, None))
            print(f"cell {cell} failed: {exc}", file=sys.stderr)
            continue
        wall = time.perf_counter() - start
        final_f = trace.f[-1] if len(trace) else None
        final_phi = trace.phi[-1] if len(trace) else None
        iters = trace.iteration[-1] if len(trace) else 0
        # loop time (first clock call to the last epoch's end) per iteration
        us_per_iter = 1e6 * trace.elapsed_s[-1] / iters if iters else None
        rows.append((cell, final_f, final_phi, rep.psnr, wall, "ok", len(trace), iters,
                     us_per_iter))
    with open(out / "summary.csv", "w", newline="") as fh:
        _write_csv(fh, "cell,final_f,final_phi,psnr_db,wall_s,status,epochs,iterations,"
                   "us_per_iter", rows)
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
    """Run a command; the one place a failure becomes its `error:` line and
    exit code: `InputError` 2, `SolverAbort` 3, anything else 1."""
    try:
        # the cap itself was applied when the package was imported (midasll1/__init__.py)
        raw_cap = os.environ.get("MIDAS_THREADS")
        if raw_cap and _thread_cap(raw_cap) is None:
            raise InputError(f"MIDAS_THREADS must be a positive integer, got {raw_cap!r}")
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InputError):
            return EXIT_PARSE
        return EXIT_NAN_ABORT if isinstance(exc, SolverAbort) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
