"""Regularizers and their proximal operators, applied per factor matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("none", "nonneg", "ridge")


@dataclass(frozen=True)
class Regularizer:
    """One of: none, nonnegativity indicator, ridge(lam) = lam/2 * ||A||_F^2."""

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"ridge weight must be finite and >= 0, got {self.lam}")
        if self.kind != "ridge" and self.lam != 0:
            raise ValueError(f"regularizer {self.kind!r} takes no weight, got {self.lam}")


@dataclass(frozen=True)
class RegularizerSpec:
    """Per-mode regularizer choice (modes 1, 2, 3)."""

    modes: tuple[Regularizer, Regularizer, Regularizer]

    @classmethod
    def uniform(cls, kind: str, lam: float = 0.0) -> "RegularizerSpec":
        r = Regularizer(kind, lam)
        return cls((r, r, r))

    def for_mode(self, mode: int) -> Regularizer:
        return self.modes[mode - 1]


NONE = RegularizerSpec.uniform("none")
NONNEG = RegularizerSpec.uniform("nonneg")


def prox(spec: RegularizerSpec, mode: int, m: np.ndarray, eta: float) -> np.ndarray:
    """argmin_Z h_n(Z) + 1/(2 eta) ||Z - M||_F^2."""
    if eta <= 0:
        raise ValueError(f"prox step must be positive, got {eta}")
    r = spec.for_mode(mode)
    if r.kind == "none":
        return np.array(m, dtype=np.float64, copy=True)
    if r.kind == "nonneg":
        return np.maximum(m, 0.0)
    return np.asarray(m, dtype=np.float64) / (1.0 + eta * r.lam)


def penalty_value(spec: RegularizerSpec, mode: int, a: np.ndarray) -> float:
    """h_n(A_n); +inf for an infeasible point under the indicator."""
    r = spec.for_mode(mode)
    if r.kind == "none":
        return 0.0
    if r.kind == "nonneg":
        return 0.0 if (a >= 0).all() else math.inf
    return 0.5 * r.lam * float(np.sum(a * a))
