"""Rank-(Lr,Lr,1) factor model: reconstruction, objective, H matrices, gradients.

The model approximates X by sum_r (A1_r A2_r^T) outer c_r, where A1_r is
I1 x L_r, A2_r is I2 x L_r and c_r is the r-th column of A3.  The smooth
part of the objective is the scaled squared residual

    f(A1, A2, A3) = ||X - Xhat||_F^2 / (2 * I1 * I2 * I3),

and its mode-n gradient is (A_n H_n^T H_n - X_(n)^T H_n) / (I1*I2*I3) with
the mode-specific coefficient matrix H_n built from the other two factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import RegularizerSpec, penalty_value
from .tensor import DenseTensor3, fiber_coordinates, unfold_contiguous


@dataclass(frozen=True)
class RankVector:
    """Block widths [L_1, ..., L_R] of the paired spatial factors."""

    L: tuple[int, ...]

    def __post_init__(self):
        L = tuple(int(v) for v in self.L)
        if len(L) == 0 or any(v < 1 for v in L):
            raise ValueError(f"ranks must be a nonempty list of positive ints, got {self.L}")
        object.__setattr__(self, "L", L)

    @property
    def R(self) -> int:
        return len(self.L)

    @property
    def total(self) -> int:
        return sum(self.L)

    @cached_property
    def starts(self) -> np.ndarray:
        """0-based start offset of each column block."""
        starts = np.concatenate(([0], np.cumsum(self.L)[:-1])).astype(np.intp)
        starts.setflags(write=False)
        return starts

    @cached_property
    def blocks(self) -> tuple[slice, ...]:
        """Column slice of each block."""
        return tuple(slice(int(s), int(s) + w) for s, w in zip(self.starts, self.L))

    def block(self, r: int) -> slice:
        return self.blocks[r]


@dataclass(frozen=True)
class LL1Factors:
    """Factor triple (A1, A2, A3) with A1, A2 block-partitioned by `ranks`.

    The arrays are treated as immutable: derived values such as
    `expanded_A3` are computed once per instance.
    """

    A1: np.ndarray  # I1 x L_total
    A2: np.ndarray  # I2 x L_total
    A3: np.ndarray  # I3 x R
    ranks: RankVector

    def __post_init__(self):
        for name, a, cols in (
            ("A1", self.A1, self.ranks.total),
            ("A2", self.A2, self.ranks.total),
            ("A3", self.A3, self.ranks.R),
        ):
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != cols:
                raise ValueError(f"{name} must have {cols} columns, got shape {a.shape}")
            object.__setattr__(self, name, a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A1.shape[0], self.A2.shape[0], self.A3.shape[0])

    def factor(self, mode: int) -> np.ndarray:
        return (self.A1, self.A2, self.A3)[mode - 1]

    @cached_property
    def expanded_A3(self) -> np.ndarray:
        """`expand_A3` of this point, computed on first use."""
        return expand_A3(self)

    def with_factor(self, mode: int, a: np.ndarray) -> "LL1Factors":
        parts = [self.A1, self.A2, self.A3]
        parts[mode - 1] = a
        return LL1Factors(*parts, self.ranks)

    def replaced(self, mode: int, a: np.ndarray) -> "LL1Factors":
        """`with_factor` for a float64 array of the right shape, without the
        checks.  Unless A3 is replaced, the new point shares `expanded_A3`
        with this one, so it is computed once per A3."""
        out = object.__new__(LL1Factors)
        state = out.__dict__
        state.update(self.__dict__)
        state[_FACTOR_NAMES[mode - 1]] = a
        if mode == 3:
            state.pop("expanded_A3", None)
        else:
            state["expanded_A3"] = self.expanded_A3
        return out

    def copy(self) -> "LL1Factors":
        return LL1Factors(self.A1.copy(), self.A2.copy(), self.A3.copy(), self.ranks)


_FACTOR_NAMES = ("A1", "A2", "A3")


@dataclass(frozen=True)
class ObjectiveValue:
    f: float
    h: float
    phi: float


def reconstruct(factors: LL1Factors) -> DenseTensor3:
    """X_hat = sum_r (A1_r A2_r^T) outer c_r."""
    return DenseTensor3(_reconstruction(factors))


def _reconstruction(factors: LL1Factors) -> np.ndarray:
    """X_hat as a new, writable, F-ordered (I1, I2, I3) array: A3 times the
    stacked slabs A2_r A1_r^T, viewed transposed."""
    i1, i2, i3 = factors.dims
    rk = factors.ranks
    slabs = np.empty((rk.R, i2, i1))
    for r, blk in enumerate(rk.blocks):
        slabs[r] = factors.A2[:, blk] @ factors.A1[:, blk].T
    return (factors.A3 @ slabs.reshape(rk.R, i2 * i1)).reshape(i3, i2, i1).T


def expand_A3(factors: LL1Factors) -> np.ndarray:
    """A3 with column r repeated L_r times (I3 x L_total)."""
    return np.repeat(factors.A3, factors.ranks.L, axis=1)


def build_H(factors: LL1Factors, mode: int) -> np.ndarray:
    """Coefficient matrix H_n of the mode-n unfolded model X_(n) ~ H_n A_n^T.

    H1 = [c_1 kron A2_1, ..., c_R kron A2_R]          (J1 x L_total)
    H2 = [c_1 kron A1_1, ..., c_R kron A1_R]          (J2 x L_total)
    H3 = [(A2_1 kr A1_1) 1, ..., (A2_R kr A1_R) 1]    (J3 x R)

    Rows are ordered to match `unfold` of the same mode.
    """
    total = factors.ranks.total
    if mode in (1, 2):
        other = factors.A2 if mode == 1 else factors.A1
        return (factors.expanded_A3[:, None, :] * other[None, :, :]).reshape(-1, total)
    if mode == 3:
        prod = (factors.A2[:, None, :] * factors.A1[None, :, :]).reshape(-1, total)
        return _block_sums(prod, factors.ranks)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def build_H_rows(factors: LL1Factors, mode: int, rows) -> np.ndarray:
    """Selected rows of H_n, built directly from the fiber coordinates.

    Never materializes the full H_n; bitwise-identical to indexing into
    `build_H(factors, mode)`.
    """
    a, b = fiber_coordinates(factors.dims, mode, rows)
    return H_rows_at(factors, mode, a, b)


def H_rows_at(factors: LL1Factors, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`build_H_rows` at fiber coordinates `(a, b)` from `fiber_coordinates`,
    without checks; uses the point's cached `expanded_A3`."""
    if mode == 1:
        return factors.expanded_A3[b, :] * factors.A2[a, :]
    if mode == 2:
        return factors.expanded_A3[b, :] * factors.A1[a, :]
    return _block_sums(factors.A2[b, :] * factors.A1[a, :], factors.ranks)


def _block_sums(prod: np.ndarray, ranks: RankVector) -> np.ndarray:
    """Row sums of each column block of `prod`: the mode-3 H rows from the
    products A2[i2, l] * A1[i1, l], shared by `build_H` and `H_rows_at` so
    that both round alike."""
    out = np.empty((prod.shape[0], ranks.R))
    for r, blk in enumerate(ranks.blocks):
        out[:, r] = prod[:, blk].sum(axis=1)
    return out


def gram_H(factors: LL1Factors, mode: int) -> np.ndarray:
    """H_n^T H_n via the block identity, without materializing H_n.

    For modes 1 and 2, block (r, s) equals (c_r^T c_s) * (M_r^T M_s) with M
    the other spatial factor; for mode 3, entry (r, s) is the total sum of
    (A1_r^T A1_s) hadamard (A2_r^T A2_s).
    """
    rk = factors.ranks
    g3 = factors.A3.T @ factors.A3
    if mode in (1, 2):
        m = factors.A2 if mode == 1 else factors.A1
        gm = m.T @ m
        scale = np.repeat(np.repeat(g3, rk.L, axis=0), rk.L, axis=1)
        return gm * scale
    if mode == 3:
        g1 = factors.A1.T @ factors.A1
        g2 = factors.A2.T @ factors.A2
        had = g1 * g2
        out = np.empty((rk.R, rk.R))
        for r in range(rk.R):
            for s in range(rk.R):
                out[r, s] = had[rk.block(r), rk.block(s)].sum()
        return out
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def objective(
    factors: LL1Factors, t: DenseTensor3, reg: RegularizerSpec
) -> ObjectiveValue:
    """Composite objective phi = f + sum_n h_n at the given point."""
    if factors.dims != t.dims:
        raise ValueError(f"factor dims {factors.dims} do not match tensor dims {t.dims}")
    # the squared residual, formed in place in the F-ordered reconstruction;
    # np.sum follows the memory layout, so it adds in the order it always has
    sq = _reconstruction(factors)
    np.subtract(t.array, sq, out=sq)
    np.multiply(sq, sq, out=sq)
    f = float(np.sum(sq)) / (2.0 * t.size)
    # a non-finite reconstruction makes f non-finite, so only then look
    if not math.isfinite(f) and not np.isfinite(_reconstruction(factors)).all():
        raise ValueError("tensor entries must be finite")
    h = sum(penalty_value(reg, n, factors.factor(n)) for n in (1, 2, 3))
    return ObjectiveValue(f, h, f + h)


def full_gradient(factors: LL1Factors, t: DenseTensor3, mode: int) -> np.ndarray:
    """Exact gradient of f with respect to A_mode (same shape as A_mode)."""
    if factors.dims != t.dims:
        raise ValueError(f"factor dims {factors.dims} do not match tensor dims {t.dims}")
    h = build_H(factors, mode)
    # C-contiguous, like the fiber rows of the sampled path: BLAS then sees
    # the same layout and rounds the same as that path on every fiber
    x_n = unfold_contiguous(t, mode)
    a = factors.factor(mode)
    return (a @ (h.T @ h) - x_n.T @ h) / t.size


def lipschitz_bound(factors: LL1Factors, mode: int, tol: float = 1e-6, max_iter: int = 1000) -> float:
    """lambda_max(H_n^T H_n) / (I1*I2*I3), by power iteration on the Gram.

    Deterministic all-ones start vector; relative tolerance on the Rayleigh
    quotient with a fixed iteration cap.
    """
    g = gram_H(factors, mode)
    n3 = factors.dims[0] * factors.dims[1] * factors.dims[2]
    v = np.ones(g.shape[0]) / math.sqrt(g.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = g @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new = float(v @ (g @ v))
        if abs(new - lam) <= tol * max(abs(new), 1e-300):
            lam = new
            break
        lam = new
    return lam / n3
