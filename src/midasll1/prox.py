"""The regularizer h and its proximal operator; one h applies to each of
the three factor matrices."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

KINDS = ("none", "nonneg", "ridge")


@dataclass(frozen=True)
class Regularizer:
    """One of: none, nonnegativity indicator, ridge(lam) = lam/2 * ||A||_F^2,
    with `lam` a real number (not a bool), stored as a float."""

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise ValueError(f"ridge weight must be a real number, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"ridge weight must be finite and >= 0, got {self.lam}")
        if self.kind != "ridge" and self.lam != 0:
            raise ValueError(f"regularizer {self.kind!r} takes no weight, got {self.lam}")


NONE = Regularizer("none")
NONNEG = Regularizer("nonneg")


def prox(reg: Regularizer, m: np.ndarray, eta: float, out: np.ndarray | None = None) -> np.ndarray:
    """argmin_Z h(Z) + 1/(2 eta) ||Z - M||_F^2, as a new array or written
    into the float64 array `out` (which may be `m` itself), with the same bits."""
    if not eta > 0:
        raise ValueError(f"prox step must be positive, got {eta}")
    if reg.kind == "none":
        if out is None:
            return np.array(m, dtype=np.float64, copy=True)
        np.copyto(out, m)
        return out
    if reg.kind == "nonneg":
        return np.maximum(m, 0.0, out=out)
    return np.divide(np.asarray(m, dtype=np.float64), 1.0 + eta * reg.lam, out=out)


def penalty_value(reg: Regularizer, a: np.ndarray) -> float:
    """h(A); +inf for an infeasible point under the indicator."""
    if reg.kind == "none":
        return 0.0
    if reg.kind == "nonneg":
        return 0.0 if (a >= 0).all() else math.inf
    return 0.5 * reg.lam * float(np.sum(a * a))
