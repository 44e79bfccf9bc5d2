"""One SHA-256 digest over the bits a refactor must keep.

    python tools/bitwise_digest.py [--quick]

It covers the factors and the epoch, iteration, phi, f, step_norm,
step_sizes and mode_counts traces of `run` for each estimator, inertial
depth and step/batch variant on a few shapes; `palm_baseline` and
`als_mu_baseline` on |X|; the iteration, mode and message of every abort;
the files `decompose`, `bench`, `synth` and `metrics --csv` write under
MIDAS_VIRTUAL_CLOCK=1 (without bench's `wall_s` column); and the exit code
and stderr of each class of CLI failure.  Elapsed times are left out, so
two trees that compute the same bits print the same digest.  Run it at two
commits (copy this file into the other checkout) to check that a change
keeps every bit.  `--quick` is a subset that takes about a second.

After the total it prints one digest per group of outputs: each
(estimator, depth) pair as `<estimator>/t<depth>` (its aborts, run at the
default depth, included), `palm`, `als-mu`, `cli`, `blocked` (PALM,
ALS-MU, an inertial full-gradient `run`, SAGA and SARAH on a shape whose
tensor contractions take several BLAS calls, see `blocked_runs`), `inertia`
(signed and zero inertial scales at depths 1-3, see `inertia_runs`) and
`mixed` (SGD and SARAH with one mode of a single bin, see `mixed_runs`).  When
a change is meant to round one group differently, the others show that
nothing else moved.

On stderr, after the counts, it prints the numpy version, its BLAS, the
number of threads OpenBLAS runs with and the OpenBLAS core that BLAS
dispatches to (either `unknown` when it cannot be read): the digests depend
on the BLAS kernel and the `blocked` group on the thread count, so a
recorded digest names both.  The tool sets OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, each
unless the caller's environment sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

# the `blocked` group's digest depends on the BLAS thread count: one thread
# unless the caller set a count, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from midasll1 import cli  # noqa: E402
from midasll1.model import LL1Factors, RankVector  # noqa: E402
from midasll1.prox import Regularizer  # noqa: E402
from midasll1.solver import (  # noqa: E402
    SolverAbort,
    SolverConfig,
    als_mu_baseline,
    palm_baseline,
    run,
)
from midasll1.synth import generate  # noqa: E402
from midasll1.tensor import DenseTensor3  # noqa: E402

# (dims, ranks) of the solver runs: I2 = 7 makes SAGA's mode-1 bins straddle
# an i3 boundary, and (9, 3, 1) has a block as wide as I1 and one of width 1
SHAPES = [((5, 7, 4), (2, 1)), ((9, 8, 7), (9, 3, 1)), ((12, 12, 12), (2, 2)),
          ((6, 10, 8), (1, 2, 2))]
VARIANTS = {
    "default": {},
    "full-batch": {"B": 10**6},
    "inverse-lipschitz": {"step_rule": "inverse_lipschitz", "reg": Regularizer("none")},
    "eta": {"eta": 0.05},
    "cyclic-ridge": {"mode_policy": "cyclic", "reg": Regularizer("ridge", 1e-4)},
    "sarah-q3-B5": {"sarah_q": 3, "B": 5},
}
ESTIMATORS = ("sgd", "saga", "sarah")
DEPTHS = (0, 1, 3)


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.groups = {}  # group name -> its own sha256
        self.counts = {"runs": 0, "aborts": 0, "cli": 0}

    def add(self, group: str, label: str, value):
        """Hash `value` under `label` into the total and into `group`'s digest."""
        parts = [label.encode() + b"\0"]
        if isinstance(value, np.ndarray):
            parts += [f"{value.dtype}{value.shape}".encode(),
                      np.ascontiguousarray(value).tobytes()]
        elif isinstance(value, bytes):
            parts.append(value)
        else:  # repr of a float is exact; tuples and lists of floats too
            parts.append(repr(value).encode())
        for h in (self.h, self.groups.setdefault(group, hashlib.sha256())):
            for part in parts:
                h.update(part)

    def solve(self, group: str, label: str, solve, cfg, tensor):
        """The factors and traces of `solve(cfg, tensor)`, or its abort."""
        self.counts["runs"] += 1
        try:
            with np.errstate(all="ignore"):  # aborts overflow on the way
                factors, trace = solve(cfg, tensor, clock=lambda: 0.0)
        except SolverAbort as exc:
            self.counts["aborts"] += 1
            self.add(group, label + "/abort", (exc.iteration, exc.mode, str(exc)))
            return
        for name in ("A1", "A2", "A3"):
            self.add(group, f"{label}/{name}", getattr(factors, name))
        for name in ("epoch", "iteration", "phi", "f", "step_norm", "step_sizes", "mode_counts"):
            self.add(group, f"{label}/{name}", getattr(trace, name))


def solver_runs(d: Digest, quick: bool):
    shapes = SHAPES[:1] if quick else SHAPES
    variants = dict(list(VARIANTS.items())[:2]) if quick else VARIANTS
    depths = (0, 3) if quick else DEPTHS
    epochs = 2 if quick else 5
    for i, (dims, widths) in enumerate(shapes):
        ranks = RankVector(widths)
        tensor, _ = generate(dims, ranks, 20.0, 100 + i)
        base = SolverConfig(ranks=ranks, epochs=epochs, seed=7 + i, abs_tol=0.0)
        for est in ESTIMATORS:
            for t in depths:
                for name, kw in variants.items():
                    cfg = replace(base, estimator=est, t=t, **kw)
                    d.solve(f"{est}/t{t}", f"{dims}/{est}/t{t}/{name}", run, cfg, tensor)
        nonneg = DenseTensor3(np.abs(tensor.array))
        d.solve("palm", f"{dims}/palm", palm_baseline, base, nonneg)
        d.solve("als-mu", f"{dims}/als-mu", als_mu_baseline, base, nonneg)
        # aborts: an infeasible step, a zero block (L = 0) and an overflowing start
        start = LL1Factors(np.ones((dims[0], ranks.total)), np.ones((dims[1], ranks.total)),
                           np.ones((dims[2], ranks.R)), ranks)
        aborts = {
            "eta-1e8": {"eta": 1e8},
            "zero-A3": {"init": replace(start, A3=np.zeros((dims[2], ranks.R)))},
            "start-1e80": {"init": replace(start, A1=start.A1 * 1e80)},
        }
        for est in ESTIMATORS:
            for name, kw in list(aborts.items())[: 1 if quick else None]:
                d.solve(f"{est}/t{base.t}", f"{dims}/{est}/abort-{name}", run,
                        replace(base, estimator=est, **kw), tensor)


# a shape whose contractions take two runs of mode-3 slabs (`model._slab_runs`);
# every shape above fits one run
BLOCKED_SHAPE = ((100, 100, 50), (4, 4, 4))


def blocked_runs(d: Digest):
    """A 3-sweep `palm_baseline` and `als_mu_baseline` on |X| at
    BLOCKED_SHAPE, 3 epochs of the inertial full-gradient cell (`run` with
    full batches, cyclic modes, 1/L steps and t = 1 at weights 0.5 and 0.5)
    on X, and one epoch each of SAGA at the defaults and of SARAH with
    `sarah_q` = 2 on X, whose objectives and restarts read the tensor
    through the same slab runs: the group `blocked`, which moves with the
    slab-run rule."""
    dims, widths = BLOCKED_SHAPE
    ranks = RankVector(widths)
    tensor, _ = generate(dims, ranks, 30.0, 200)
    cfg = SolverConfig(ranks=ranks, epochs=3, seed=11, abs_tol=0.0)
    nonneg = DenseTensor3(np.abs(tensor.array))
    d.solve("blocked", f"{dims}/palm", palm_baseline, cfg, nonneg)
    d.solve("blocked", f"{dims}/als-mu", als_mu_baseline, cfg, nonneg)
    inertial = replace(cfg, estimator="sgd", t=1, alpha0=0.5, beta0=0.5, B=10**6,
                       mode_policy="cyclic", step_rule="inverse_lipschitz")
    d.solve("blocked", f"{dims}/inertial-full-batch", run, inertial, tensor)
    d.solve("blocked", f"{dims}/saga", run, replace(cfg, epochs=1), tensor)
    d.solve("blocked", f"{dims}/sarah-q2", run,
            replace(cfg, estimator="sarah", sarah_q=2, epochs=1), tensor)


# the inertial scales of the group `inertia`: signed and zero, which no run above takes
INERTIA_SCALES = ((-0.3, 0.8), (0.3, -0.8), (0.0, 0.0))


def inertia_runs(d: Digest):
    """5-epoch SGD and SAGA runs at depths 1-3 under INERTIA_SCALES on the
    first shape: the group `inertia`, which moves with the inertial weights."""
    dims, widths = SHAPES[0]
    ranks = RankVector(widths)
    tensor, _ = generate(dims, ranks, 20.0, 300)
    base = SolverConfig(ranks=ranks, epochs=5, seed=13, abs_tol=0.0)
    for est in ("sgd", "saga"):
        for t in (1, 2, 3):
            for alpha0, beta0 in INERTIA_SCALES:
                cfg = replace(base, estimator=est, t=t, alpha0=alpha0, beta0=beta0)
                d.solve("inertia", f"{dims}/{est}/t{t}/{alpha0},{beta0}", run, cfg, tensor)


def mixed_runs(d: Digest):
    """5-epoch SGD and SARAH runs at depths 0, 1 and 3, and at depth 0 with
    1/L steps, on the first two shapes with B the smallest J_n, so that one
    mode is a single bin and the others two: the group `mixed`, whose
    full-batch steps fall between sampled steps."""
    for i, (dims, widths) in enumerate(SHAPES[:2]):
        ranks = RankVector(widths)
        tensor, _ = generate(dims, ranks, 20.0, 400 + i)
        b = min(dims[0] * dims[1], dims[0] * dims[2], dims[1] * dims[2])
        base = SolverConfig(ranks=ranks, epochs=5, seed=17 + i, B=b, abs_tol=0.0)
        for est in ("sgd", "sarah"):
            for t in (0, 1, 3):
                d.solve("mixed", f"{dims}/{est}/t{t}/B{b}", run,
                        replace(base, estimator=est, t=t), tensor)
            d.solve("mixed", f"{dims}/{est}/t0/B{b}/inverse-lipschitz", run,
                    replace(base, estimator=est, t=0, **VARIANTS["inverse-lipschitz"]), tensor)


def call_cli(d: Digest, label: str, argv, tmp: str):
    """main(argv)'s exit code, stdout and stderr, with `tmp` written as <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    # numpy's overflow warnings name source lines, which a change may move
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        rc = cli.main(argv)
    d.counts["cli"] += 1
    d.add("cli", label,
          (rc, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")))


def add_files(d: Digest, label: str, folder: Path):
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.csv":  # drop wall_s, the fifth field; none before it has a comma
            lines = [line.split(b",", 5) for line in data.splitlines(keepends=True)]
            data = b"".join(b",".join(fields[:4] + fields[5:]) for fields in lines)
        d.add("cli", f"{label}/{path.relative_to(folder)}", data)


def cli_runs(d: Digest, quick: bool):
    virtual_clock = mock.patch.dict(os.environ, MIDAS_VIRTUAL_CLOCK="1")
    with tempfile.TemporaryDirectory() as tmp, virtual_clock:
        root = Path(tmp)
        x = str(root / "x.dten")
        call_cli(d, "synth", ["synth", "--dims", "6,5,4", "--ranks", "2,1", "--snr-db", "25",
                              "--seed", "3", "--out", x], tmp)
        (root / "run.cfg").write_text(f"ranks = 2,1\nepochs = {2 if quick else 6}\n")
        (root / "abort.cfg").write_text("ranks = 2,1\nepochs = 2\neta = 1e8\n")
        (root / "bad.cfg").write_text("ranks = 2,1\nt = -1\n")
        (root / "grid.cfg").write_text(
            "ranks = 2,1\nepochs = 2\ngrid_estimators = sgd,saga,sarah\ngrid_t = 0,3\n"
            "grid_baselines = palm,alsmu\nbaseline_iters = 2\n")
        (root / "bad-grid.cfg").write_text("ranks = 2,1\ngrid_t = -1\n")
        (root / "abort-grid.cfg").write_text("ranks = 2,1\neta = 1e8\ngrid_estimators = sgd\n")
        (root / "bad.dten").write_bytes(b"not a tensor\n")
        (root / "file").write_text("")
        other = str(root / "other.dten")
        call_cli(d, "synth-other", ["synth", "--dims", "7,5,4", "--ranks", "2", "--out", other],
                 tmp)
        ok = {
            "decompose": ["decompose", "--tensor", x, "--config", str(root / "run.cfg"),
                          "--out", str(root / "dec")],
            "decompose-seed": ["decompose", "--tensor", x, "--config", str(root / "run.cfg"),
                               "--seed", "5", "--out", str(root / "dec-seed")],
            "bench": ["bench", "--tensor", x, "--grid", str(root / "grid.cfg"),
                      "--out", str(root / "bench")],
            "bench-abort": ["bench", "--tensor", x, "--grid", str(root / "abort-grid.cfg"),
                            "--out", str(root / "bench-abort")],
            "metrics": ["metrics", "--tensor", x, "--factors", x + ".truth"],
            "metrics-csv": ["metrics", "--tensor", x, "--factors", x + ".truth", "--csv"],
        }
        failures = {
            "missing-tensor": ["decompose", "--tensor", str(root / "none.dten"), "--config",
                               str(root / "run.cfg"), "--out", str(root / "f1")],
            "format-error": ["decompose", "--tensor", str(root / "bad.dten"), "--config",
                             str(root / "run.cfg"), "--out", str(root / "f2")],
            "config-error": ["decompose", "--tensor", x, "--config", str(root / "bad.cfg"),
                             "--out", str(root / "f3")],
            "seed-error": ["decompose", "--tensor", x, "--config", str(root / "run.cfg"),
                           "--seed", "-1", "--out", str(root / "f4")],
            "abort": ["decompose", "--tensor", x, "--config", str(root / "abort.cfg"),
                      "--out", str(root / "f5")],
            "out-not-a-dir": ["decompose", "--tensor", x, "--config", str(root / "run.cfg"),
                              "--out", str(root / "file" / "out")],
            "synth-flag": ["synth", "--dims", "4,0,4", "--ranks", "2", "--out",
                           str(root / "f6.dten")],
            "synth-snr": ["synth", "--dims", "4,4,4", "--ranks", "2", "--snr-db", "nan",
                          "--out", str(root / "f7.dten")],
            "metrics-missing": ["metrics", "--tensor", x, "--factors", str(root / "nope")],
            "metrics-dims": ["metrics", "--tensor", other, "--factors", x + ".truth"],
            "bench-grid": ["bench", "--tensor", x, "--grid", str(root / "bad-grid.cfg"),
                           "--out", str(root / "f8")],
        }
        for label, argv in ok.items():
            call_cli(d, label, argv, tmp)
        for label, argv in failures.items():
            call_cli(d, label, argv, tmp)
        with mock.patch.dict(os.environ, MIDAS_THREADS="zero"):
            call_cli(d, "threads", ["metrics", "--tensor", x, "--factors", x + ".truth"], tmp)
        for folder in ("dec", "dec-seed", "bench", "bench-abort"):
            add_files(d, folder, root / folder)
        d.add("cli", "x.dten", Path(x).read_bytes())


def digest(quick: bool = False) -> tuple[str, dict[str, int], dict[str, str]]:
    """The hex digest, the counts of solver runs, aborts and CLI calls, and
    the hex digest of each group."""
    d = Digest()
    solver_runs(d, quick)
    cli_runs(d, quick)
    blocked_runs(d)
    inertia_runs(d)
    mixed_runs(d)
    return d.h.hexdigest(), d.counts, {g: h.hexdigest() for g, h in d.groups.items()}


def _openblas(symbol: str):
    """`symbol` of the `libscipy_openblas64_` that numpy's Linux wheel
    bundles, or None when that library or the symbol is absent."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*")):
        try:
            return getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
    return None


def openblas_core() -> str:
    """The core OpenBLAS chose at load time, or `unknown`."""
    corename = _openblas("scipy_openblas_get_corename64_")
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def openblas_threads() -> str:
    """The number of threads OpenBLAS runs with, or `unknown`."""
    threads = _openblas("scipy_openblas_get_num_threads64_")
    if threads is None:
        return "unknown"
    threads.argtypes, threads.restype = [], ctypes.c_int
    return str(threads())


def blas_line() -> str:
    """numpy's version, its BLAS's name and version, and OpenBLAS's thread
    count and core."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"threads {openblas_threads()}, core {openblas_core()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true", help="a small subset of the matrix")
    args = p.parse_args(argv)
    hexdigest, counts, groups = digest(args.quick)
    print(hexdigest)
    for group, value in groups.items():
        print(f"{group} {value}")
    print(", ".join(f"{v} {k}" for k, v in counts.items()), file=sys.stderr)
    print(blas_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
