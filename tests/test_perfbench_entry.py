"""The benchmark's entry points into the package still resolve.

`perfbench/` is held fixed so that its runs stay comparable across changes;
it reaches the package through `parse_config(text).to_solver_config()`, the
solver functions by name, `objective(..., cfg.reg)` in its instance writer,
and the SAGA table attributes its tracer reads.
These tests load its modules by path, unedited, so that a cleanup of the
package cannot break every benchmark run unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from midasll1 import estimators, model, solver, tensorfile
from midasll1.config import parse_config
from midasll1.estimators import SagaState
from midasll1.model import LL1Factors, RankVector
from midasll1.tensor import DenseTensor3

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up while defining
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.mark.parametrize("name, entry", [("mid_saga", "run"), ("mid_palm", "palm_baseline")])
def test_workload_config_and_solver_resolve(name, entry):
    workload = load("workloads").WORKLOADS[name]
    text = workload.config_text(7)
    assert workload.solver_config(text) == parse_config(text)
    assert workload.solver_entry() is getattr(solver, entry)


def test_tracer_reads_the_saga_table():
    rng = np.random.default_rng(0)
    rk = RankVector((2, 1))
    f = LL1Factors(rng.random((4, 3)), rng.random((3, 3)), rng.random((2, 2)), rk)
    t = DenseTensor3(rng.random((4, 3, 2)))
    state = SagaState.warm_start(f, t, {n: 2 for n in (1, 2, 3)})
    nbytes = sum(g.nbytes for g in state.table.values())
    nbytes += sum(m.nbytes for m in state.running_mean.values())
    assert load("tracing")._warm_start_work((), state) == (float(nbytes), 0.0)


def test_write_instances_runs_the_solver_set_up(tmp_path, monkeypatch):
    """The launcher's instance writer, unedited, on a tiny SAGA workload: it
    solves zero epochs (the SAGA warm start through `solver.run`) and
    evaluates `objective` with the config's regularizer."""
    workloads = load("workloads")
    for var in workloads.THREAD_VARS:  # the launcher pins them on import
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    tiny = workloads.Workload("tiny", (6, 5, 4), (2, 1), 30.0, "saga", 1e-3, 3, 1.0)
    (inst,) = load("run").write_instances(tiny, 3, 1, tmp_path)
    assert tensorfile.read_tensor(inst["tensor"]).dims == (6, 5, 4)
    for kind, epochs in (("full", 3), ("setup", 0), ("prefix", 2)):
        assert parse_config(Path(inst[kind]).read_text()).epochs == epochs


def test_tracer_hooks_resolve():
    """The traced run's hooks on the set-up and full-gradient kernels find
    their targets (the warm start still as a classmethod), and the only
    targets missing are the deleted gather and H-row wrappers and the
    deleted checked twins `sgd_estimate`, `FiberBatch` and `with_factor`."""
    tracing = load("tracing")
    originals = {
        "read_tensor": tensorfile.read_tensor,
        "warm_start": vars(SagaState)["warm_start"],
        "full_gradient": model.full_gradient,
        "objective": model.objective,
        "lipschitz_bound": model.lipschitz_bound,
    }
    assert isinstance(originals["warm_start"], classmethod)
    with tracing.Hooks(tracing.Tracer()) as hooks:
        assert set(hooks.missing) == {
            "tensor.gather_fiber_rows", "model.build_H_rows", "estimators.sgd_estimate",
            "tensor.FiberBatch", "model.LL1Factors.with_factor"}
        assert tensorfile.read_tensor is not originals["read_tensor"]
        assert isinstance(vars(SagaState)["warm_start"], classmethod)
        assert vars(SagaState)["warm_start"] is not originals["warm_start"]
        for name in ("full_gradient", "objective", "lipschitz_bound"):
            assert getattr(model, name) is not originals[name]
        assert estimators.full_gradient is not originals["full_gradient"]
    assert tensorfile.read_tensor is originals["read_tensor"]
    assert vars(SagaState)["warm_start"] is originals["warm_start"]
