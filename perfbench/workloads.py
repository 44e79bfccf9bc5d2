"""Workload table, seed derivation and package loading shared by the
benchmark launcher (`run.py`) and its measuring process (`measure.py`).

Why each workload exists, its target and the layer -> end-to-end map are
recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

# BLAS is pinned to this many threads in every benchmark process; the
# variables must be set before numpy is first imported.
THREAD_PIN = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"


def pin_threads(environ=os.environ) -> None:
    for var in THREAD_VARS:
        environ[var] = str(THREAD_PIN)


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    ranks: tuple[int, ...]
    snr_db: float
    method: str  # "sgd" | "saga" | "sarah" run the stochastic solver; "palm" the baseline
    target: float  # relative residual sqrt(2*N*f) / ||X|| to reach
    max_epochs: int  # epoch (or PALM sweep) cap; a solve that hits it fails the gate
    instance_s: float  # nominal seconds per instance; sets how many instances a run solves

    def instance_count(self, seconds: float, traced: bool) -> int:
        """Instances solved in a run of `seconds`: fixed by the arguments, not by host speed.

        A traced run solves each instance twice (untraced, then traced).
        """
        return max(1, int(seconds // (self.instance_s * (2 if traced else 1))))

    def config_text(self, solver_seed: int, epochs: int | None = None) -> str:
        lines = [
            "ranks = " + ",".join(str(v) for v in self.ranks),
            "t = 3",
            f"epochs = {self.max_epochs if epochs is None else epochs}",
            f"seed = {solver_seed}",
            "reg = nonneg",
        ]
        if self.method != "palm":
            lines.insert(1, f"estimator = {self.method}")
        return "\n".join(lines) + "\n"

    def solver_config(self, text: str):
        """Config text -> SolverConfig, through the parser `decompose` uses."""
        from midasll1 import config

        return config.parse_config(text).to_solver_config()

    def solver_entry(self):
        """The solver function, looked up at call time so tracing wrappers apply."""
        from midasll1 import solver

        return solver.palm_baseline if self.method == "palm" else solver.run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiny_sarah", (12, 12, 12), (2, 2), float("inf"), "sarah", 3e-2, 1000, 4.0),
        Workload("mid_saga", (100, 100, 50), (4, 4, 4), 30.0, "saga", 6e-2, 60, 12.0),
        Workload("mid_palm", (100, 100, 50), (4, 4, 4), 30.0, "palm", 6e-2, 800, 4.5),
    )
}


def derive_seeds(seed: int, index: int) -> tuple[int, int]:
    """(instance seed, solver seed) for instance `index` of a run.

    `synth.generate` and the solver's initialisation draw from the same
    Philox stream of their seed, so equal seeds would start the solver at
    the planted truth; the two are derived independently and must differ.
    The instance seed does not depend on the workload, so `mid_saga` and
    `mid_palm` solve the same tensors for the same seed.
    """
    import numpy as np

    inst, solver = np.random.SeedSequence([seed, index]).generate_state(2)
    if inst == solver:
        raise RuntimeError(f"seed {seed}, instance {index}: instance and solver seeds coincide")
    return int(inst), int(solver)


def load_midasll1():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "midasll1" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no midasll1 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import midasll1

    if Path(midasll1.__file__).resolve().parent != SRC / "midasll1":
        raise SystemExit(f"benchmark: midasll1 imported from {midasll1.__file__}, not {SRC}")
    return midasll1
