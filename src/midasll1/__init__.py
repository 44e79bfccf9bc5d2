"""Regularized rank-(Lr,Lr,1) block-term tensor decomposition.

Library entry points: DenseTensor3 / unfold / fold (tensor), LL1Factors /
objective / full_gradient (model), SGD/SAGA/SARAH estimators, the inertial
doubly stochastic solver (one proximal step at every inertial depth t; t = 0
is PALM's step) with deterministic baselines, quality metrics, and binary
tensor file I/O.  Inputs are checked by the constructors of DenseTensor3,
RankVector, LL1Factors and SolverConfig and by the file readers.
"""

import os as _os


def _thread_cap(raw):
    """MIDAS_THREADS as a positive int; None when it is unset or not one."""
    try:
        cap = int(raw)
    except (TypeError, ValueError):
        return None
    return cap if cap > 0 else None


# MIDAS_THREADS.  OpenBLAS/OpenMP read their thread counts once, when numpy
# loads them, so the cap is set here, before the first numpy import below.
# It takes effect whenever midasll1 is imported before numpy: always for the
# console script and `python -m midasll1.cli`, never for `cli.main()` called
# in a process that had already imported numpy.  An invalid value is skipped
# here, so importing never raises; the CLI rejects it with exit 2.
_cap = _thread_cap(_os.environ.get("MIDAS_THREADS"))
if _cap is not None:
    _os.environ.update(
        dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), str(_cap))
    )
del _cap

from .metrics import MetricReport, report
from .model import LL1Factors, ObjectiveValue, RankVector, full_gradient, objective, reconstruct
from .prox import Regularizer, prox
from .solver import (
    RunTrace,
    SolverAbort,
    SolverConfig,
    als_mu_baseline,
    feasibility_check,
    palm_baseline,
    run,
)
from .synth import generate
from .tensor import DenseTensor3, fold, khatri_rao, unfold

__all__ = [
    "DenseTensor3", "unfold", "fold", "khatri_rao",
    "RankVector", "LL1Factors", "ObjectiveValue", "reconstruct", "objective",
    "full_gradient",
    "Regularizer", "prox",
    "SolverConfig", "RunTrace", "SolverAbort", "run", "palm_baseline",
    "als_mu_baseline", "feasibility_check",
    "MetricReport", "report", "generate",
]

__version__ = "0.1.0"
