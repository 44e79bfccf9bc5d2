"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run pytest with -s or look at captured
output).  Expensive solver runs on the shared 12x12x12 exact-rank instance
are computed once in a module-scoped fixture and reused across criteria.
"""

import copy
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
import midasll1
from midasll1.cli import EXIT_PARSE
from midasll1.estimators import (
    SagaState,
    SgdState,
    batch_gradient,
    estimator_mse_probe,
)
from midasll1.model import (
    H_rows_at,
    LL1Factors,
    RankVector,
    full_gradient,
    objective,
    reconstruct,
)
from midasll1.prox import NONE
from midasll1.solver import (
    SolverConfig,
    als_mu_baseline,
    feasibility_check,
    palm_baseline,
    run,
)
from midasll1.synth import generate
from midasll1.tensor import DenseTensor3, fiber_coordinates, fold, khatri_rao, row_count, unfold
from midasll1 import tensorfile


def _verdict(num: int, name: str, ok: bool, extra: str = ""):
    tail = f" ({extra})" if extra else ""
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, f"criterion {num} ({name}) failed{tail}"


def _random_factors(rng, dims, L):
    rk = RankVector(L)
    return LL1Factors(
        rng.random((dims[0], rk.total)),
        rng.random((dims[1], rk.total)),
        rng.random((dims[2], rk.R)),
        rk,
    )


def _rel_residual(tensor, final_f):
    return math.sqrt(2.0 * tensor.size * final_f) / tensor.norm()


# ---------------------------------------------------------------------------
# shared 12x12x12 exact-rank instance (criteria 7, 8, 9)

N_SEEDS_ORDERING = 10
EPOCHS = 200


@pytest.fixture(scope="module")
def shared_instance():
    tensor, truth = generate((12, 12, 12), RankVector((2, 2)), math.inf, seed=7)
    return tensor, truth


@pytest.fixture(scope="module")
def midas_runs(shared_instance):
    """SAGA runs at default settings for t in {0, 1, 3}; the t=3 seed-0 run
    also snapshots the epoch-100 iterate and estimator state for the MSE
    probe.  Returns final f per (t, seed), per-seed wall times for t=3, and
    the snapshot."""
    tensor, _ = shared_instance
    final_f = {}
    t3_times = {}
    snapshot = {}

    def snap(epoch, factors, state):
        if epoch == 100:
            snapshot["factors"] = factors
            snapshot["state"] = copy.deepcopy(state)

    for t in (0, 1, 3):
        for seed in range(N_SEEDS_ORDERING):
            cfg = SolverConfig(
                ranks=RankVector((2, 2)),
                estimator="saga",
                t=t,
                epochs=EPOCHS,
                seed=seed,
            )
            cb = snap if (t == 3 and seed == 0) else None
            t0 = time.perf_counter()
            _, trace = run(cfg, tensor, callback=cb)
            if t == 3:
                t3_times[seed] = time.perf_counter() - t0
            final_f[(t, seed)] = trace.f[-1]
    return final_f, t3_times, snapshot


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    cases = [
        ((6, 7, 8), (2, 1, 3)),
        ((5, 7, 4), (1, 1)),
        ((6, 3, 8), (2, 2, 2)),
        ((4, 6, 5), (3,)),
        ((6, 7, 8), (1, 2)),
    ]
    h = 1e-6
    for dims, L in cases:
        f = _random_factors(rng, dims, L)
        x = DenseTensor3(rng.random(dims))
        for mode in (1, 2, 3):
            g = full_gradient(f, x, mode)
            a = f.factor(mode)
            fd = np.zeros_like(a)
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    ap, am = a.copy(), a.copy()
                    ap[i, j] += h
                    am[i, j] -= h
                    fd[i, j] = (
                        objective(f.replaced(mode, ap), x, NONE).f
                        - objective(f.replaced(mode, am), x, NONE).f
                    ) / (2 * h)
            worst = max(worst, float(np.abs(g - fd).max() / np.abs(g).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    _verdict(1, "gradient-correctness", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_estimator_unbiasedness():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    f = _random_factors(rng, (5, 6, 4), (2, 2))
    x = DenseTensor3(rng.random((5, 6, 4)))
    worst = 0.0
    for mode, b in ((1, 4), (2, 4), (3, 3)):  # each b divides J = (24, 20, 30)
        jn = row_count(x.dims, mode)
        bins = np.arange(jn).reshape(-1, b)
        avg = sum(batch_gradient(f, x, mode, idx) for idx in bins) / len(bins)
        worst = max(worst, float(np.linalg.norm(avg - full_gradient(f, x, mode))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(2, "estimator-unbiasedness", ok, f"max Frobenius err {worst:.2e}")


def test_criterion_03_saga_cancellation():
    rng = np.random.default_rng(1003)
    f = _random_factors(rng, (5, 4, 6), (2, 1))
    x = DenseTensor3(rng.random((5, 4, 6)))
    ok = True
    detail = []
    for mode, b in ((1, 4), (2, 3), (3, 4)):  # each b divides J = (24, 30, 20)
        jn = row_count(x.dims, mode)
        bins = np.arange(jn).reshape(-1, b)
        state = SagaState.warm_start(f, x, {mode: b})
        # unchanged point: fresh and stored cancel exactly (bitwise)
        for bin_id in range(state.n_bins(mode)):
            g = copy.deepcopy(state).estimate(f, x, mode, bin_id)
            if not np.array_equal(g, state.running_mean[mode]):
                ok = False
        # full deterministic sweep at a new fixed point
        f2 = _random_factors(rng, (5, 4, 6), (2, 1))
        for bin_id in range(state.n_bins(mode)):
            state.estimate(f2, x, mode, bin_id)
        target = sum(batch_gradient(f2, x, mode, idx) for idx in bins) / len(bins)
        err = float(np.linalg.norm(state.running_mean[mode] - target))
        detail.append(err)
        ok = ok and err <= 1e-10
    _verdict(3, "saga-cancellation", ok, f"sweep errs {max(detail):.2e}")


def test_criterion_04_kernel_suites():
    rng = np.random.default_rng(1004)
    ok = True
    worst_h = 0.0
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 8, size=3))
        n_blocks = int(rng.integers(1, 4))
        L = tuple(int(v) for v in rng.integers(1, 4, size=n_blocks))
        x = DenseTensor3(rng.random(dims))
        for mode in (1, 2, 3):
            back = fold(unfold(x, mode), mode, dims)
            if not np.array_equal(back.array, x.array):
                ok = False
        a = rng.standard_normal((dims[0], 3))
        b = rng.standard_normal((dims[1], 3))
        kr = khatri_rao(b, a)
        gram_err = np.abs(kr.T @ kr - (b.T @ b) * (a.T @ a)).max()
        if gram_err > 1e-12 * max(1.0, np.abs((b.T @ b) * (a.T @ a)).max()):
            ok = False
        f = _random_factors(rng, dims, L)
        xr = reconstruct(f)
        for mode in (1, 2, 3):
            fibers = fiber_coordinates(dims, mode, np.arange(row_count(dims, mode)))
            resid = unfold(xr, mode) - H_rows_at(f, f.ranks, mode, *fibers) @ f.factor(mode).T
            worst_h = max(worst_h, float(np.linalg.norm(resid)))
    ok = ok and worst_h <= 1e-10
    _verdict(4, "kernel-suites", ok, f"worst H-identity resid {worst_h:.2e}")


def test_criterion_05_reduction_equivalence():
    tensor, _ = generate((6, 5, 4), RankVector((2,)), math.inf, seed=55)
    cfg = SolverConfig(
        ranks=RankVector((2,)),
        estimator="sgd",
        t=0,
        B=10**9,
        epochs=50,
        seed=7,
        mode_policy="cyclic",
        step_rule="inverse_lipschitz",
        abs_tol=0.0,
    )
    fr, *series_r = conftest.palm_reference(cfg, tensor)
    ok = len(series_r[0]) == 50
    worst = 0.0
    for fm, trm in (run(cfg, tensor), palm_baseline(cfg, tensor)):
        ok = ok and len(trm) == 50
        for series_m, series_p in zip((trm.phi, trm.f, trm.step_norm), series_r):
            worst = max(worst, max(abs(a - b) for a, b in zip(series_m, series_p)))
        for n in (1, 2, 3):
            worst = max(worst, float(np.abs(fm.factor(n) - fr.factor(n)).max()))
    ok = ok and worst <= 1e-12
    _verdict(5, "reduction-equivalence", ok, f"max trace/factor diff {worst:.2e}")


def test_criterion_06_baseline_monotonicity():
    rng = np.random.default_rng(1006)
    tensor = DenseTensor3(rng.random((8, 8, 8)))
    cfg = SolverConfig(ranks=RankVector((2, 2)), epochs=500, seed=0, abs_tol=0.0)
    _, trp = palm_baseline(cfg, tensor)
    palm_ok = all(b <= a + 1e-10 for a, b in zip(trp.phi, trp.phi[1:]))
    _, tra = als_mu_baseline(cfg, tensor)
    alsmu_ok = all(b <= a + 1e-8 for a, b in zip(tra.phi, tra.phi[1:]))
    _verdict(6, "baseline-monotonicity", palm_ok and alsmu_ok)


def test_criterion_07_exact_rank_recovery(shared_instance, midas_runs):
    tensor, _ = shared_instance
    final_f, t3_times, _ = midas_runs
    rels = sorted(_rel_residual(tensor, final_f[(3, s)]) for s in range(5))
    median = rels[2]
    total = sum(t3_times[s] for s in range(5))
    ok = median <= 1e-2 and total < 60.0
    _verdict(7, "exact-rank-recovery", ok, f"median rel resid {median:.2e}, {total:.1f}s")


def test_criterion_08_acceleration_ordering(midas_runs):
    final_f, _, _ = midas_runs
    med = {}
    for t in (0, 1, 3):
        vals = sorted(final_f[(t, s)] for s in range(N_SEEDS_ORDERING))
        med[t] = 0.5 * (vals[4] + vals[5])
    ok = med[3] <= med[1] <= 1.05 * med[0]
    _verdict(
        8,
        "acceleration-ordering",
        ok,
        f"median f: t=3 {med[3]:.3e}, t=1 {med[1]:.3e}, t=0 {med[0]:.3e}",
    )


def test_criterion_09_variance_reduction(shared_instance, midas_runs):
    tensor, _ = shared_instance
    _, _, snapshot = midas_runs
    factors, state = snapshot["factors"], snapshot["state"]
    n_draws = 500
    ok = True
    seps = []
    for mode in (1, 2, 3):
        b = state.batches[mode]
        rng = np.random.default_rng(9000 + mode)
        mse_saga, d_saga = estimator_mse_probe(
            state, factors, tensor, mode, n_draws, rng, return_draws=True
        )
        mse_sgd, d_sgd = estimator_mse_probe(
            SgdState(tensor.dims, {mode: b}, factors.ranks), factors, tensor, mode, n_draws, rng,
            return_draws=True
        )
        se = math.sqrt(d_saga.var(ddof=1) / n_draws + d_sgd.var(ddof=1) / n_draws)
        sep = (mse_sgd - mse_saga) / se if se > 0 else math.inf
        seps.append(sep)
        ok = ok and mse_saga < mse_sgd and sep > 3.0
    _verdict(9, "variance-reduction", ok, "separation " + ", ".join(f"{s:.1f}sigma" for s in seps))


def test_criterion_10_feasibility_formula():
    ok = True
    # t = 0 closed-form threshold
    for lip, gamma in ((0.8, 0.3), (2.0, 0.0), (1.5, 1.2)):
        bound = 2.0 / (4.0 * lip + gamma * 2 * 3)
        below = feasibility_check(0, 0.999 * bound, lip, gamma, 0.0, 0.0)
        above = feasibility_check(0, 1.001 * bound, lip, gamma, 0.0, 0.0)
        ok = ok and below.delta > 0 and above.delta < 0
        ok = ok and abs(below.eta_max - bound) <= 1e-12
    # hand-computed delta values
    triples = [
        # (t, eta, L, gamma, alpha, beta, expected delta)
        (1, 0.1, 1.0, 0.0, 0.2, 0.5, -3.875),
        (0, 0.2, 1.0, 0.5, 0.3, 0.9, -0.75),
        (1, 0.01, 1.0, 0.0, 0.01, 0.1, 45.925),
    ]
    worst = 0.0
    for t, eta, lip, gamma, alpha, beta, expected in triples:
        rep = feasibility_check(t, eta, lip, gamma, alpha, beta)
        worst = max(worst, abs(rep.delta - expected))
    ok = ok and worst <= 1e-12
    _verdict(10, "feasibility-formula", ok, f"max delta err {worst:.1e}")


# Put the package this session imported first on a child's PYTHONPATH, as an
# absolute path: a relative entry such as PYTHONPATH=src does not resolve from
# the child's working directory.
PACKAGE_ROOT = str(Path(midasll1.__file__).resolve().parents[1])


def _child_env(env_extra):
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    return env


def _run_cli(args, env_extra, cwd):
    env = _child_env(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "midasll1.cli"] + args,
        capture_output=True,
        env=env,
        cwd=cwd,
        text=True,
    )


def _trace_without_elapsed(path):
    lines = path.read_text().splitlines()
    out = []
    for line in lines[1:]:
        cols = line.split(",")
        out.append(cols[:4] + cols[5:])
    return out


def _require_exit_ok(r):
    """Fail criterion 11 with the child's own error, not on a missing artifact."""
    if r.returncode != 0:
        _verdict(11, "cli-determinism", False, f"exit {r.returncode}: {r.stderr.strip()}")


def test_criterion_11_cli_determinism(tmp_path):
    tensor_path = tmp_path / "x.dten"
    tensor, _ = generate((8, 8, 6), RankVector((2, 1)), math.inf, seed=21)
    tensorfile.write_tensor(tensor_path, tensor)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("ranks = 2,1\nepochs = 20\nseed = 4\n")
    artifacts = ("trace.csv", "A1.dmat", "A2.dmat", "A3.dmat", "ranks.txt")

    ok = True
    # fully bitwise under the virtual clock, across thread caps
    outputs = {}
    for threads in ("1", "4"):
        for rep in ("a", "b"):
            out = tmp_path / f"v{threads}{rep}"
            r = _run_cli(
                ["decompose", "--tensor", str(tensor_path), "--config", str(cfg_path),
                 "--out", str(out)],
                {"MIDAS_THREADS": threads, "MIDAS_VIRTUAL_CLOCK": "1"},
                tmp_path,
            )
            _require_exit_ok(r)
            outputs[(threads, rep)] = out
    ref = outputs[("1", "a")]
    for key, out in outputs.items():
        for name in artifacts:
            if (out / name).read_bytes() != (ref / name).read_bytes():
                ok = False
    # real clock: factor files bitwise, trace identical apart from elapsed_s
    real = []
    for rep in ("a", "b"):
        out = tmp_path / f"r{rep}"
        r = _run_cli(
            ["decompose", "--tensor", str(tensor_path), "--config", str(cfg_path),
             "--out", str(out)],
            {"MIDAS_THREADS": "1"},
            tmp_path,
        )
        _require_exit_ok(r)
        real.append(out)
    for name in ("A1.dmat", "A2.dmat", "A3.dmat", "ranks.txt"):
        if (real[0] / name).read_bytes() != (real[1] / name).read_bytes():
            ok = False
    if _trace_without_elapsed(real[0] / "trace.csv") != _trace_without_elapsed(
        real[1] / "trace.csv"
    ):
        ok = False
    _verdict(11, "cli-determinism", ok)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_midas_threads_caps_blas_threads():
    # The cap alone must pin BLAS to one thread, so the other thread variables
    # are removed from the child's environment.
    env = _child_env({"MIDAS_THREADS": "1"})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    code = (
        "import os, midasll1, numpy as np\n"
        "a = np.ones((512, 512))\n"
        "a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_midas_threads_rejects_invalid(tmp_path, value):
    # the CLI exits 2 with one error line before writing anything
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ranks = 1\nepochs = 1\n")
    tensor_path = tmp_path / "x.dten"
    tensorfile.write_tensor(tensor_path, DenseTensor3(np.ones((2, 2, 2))))
    out = tmp_path / "o"
    r = _run_cli(
        ["decompose", "--tensor", str(tensor_path), "--config", str(cfg), "--out", str(out)],
        {"MIDAS_THREADS": value},
        tmp_path,
    )
    assert r.returncode == EXIT_PARSE
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MIDAS_THREADS")
    assert not out.exists()
    # library import skips the value instead of raising or passing it to BLAS
    env = _child_env({"MIDAS_THREADS": value})
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = "import os, midasll1\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "None"


def test_criterion_12_file_format_roundtrip(tmp_path):
    rng = np.random.default_rng(1012)
    ok = True
    for i in range(10):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        t = DenseTensor3(rng.standard_normal(dims))
        path = tmp_path / f"t{i}.dten"
        tensorfile.write_tensor(path, t)
        back = tensorfile.read_tensor(path)
        if back.dims != t.dims or not np.array_equal(back.array, t.array):
            ok = False
    # malformed header must be rejected with the documented parse exit code
    bad = tmp_path / "bad.dten"
    bad.write_bytes(b"DTENSOR 2 2 2 2\n" + b"\x00" * 64)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ranks = 1\nepochs = 1\n")
    r = _run_cli(
        ["decompose", "--tensor", str(bad), "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        {},
        tmp_path,
    )
    ok = ok and r.returncode == EXIT_PARSE
    _verdict(12, "file-format-roundtrip", ok, f"malformed exit code {r.returncode}")
