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

from .prox import Regularizer, penalty_value
from .tensor import DenseTensor3, _check_mode, unfold_contiguous


@dataclass(frozen=True)
class RankVector:
    """Block widths [L_1, ..., L_R] of the paired spatial factors."""

    L: tuple[int, ...]

    def __post_init__(self):
        L = tuple(self.L)
        for v in L:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"rank widths must be integers, got {v!r}")
        L = tuple(int(v) for v in L)
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
    def blocks(self) -> tuple[slice, ...]:
        """Column slice of each block."""
        ends = np.cumsum(self.L).tolist()
        return tuple(slice(e - w, e) for e, w in zip(ends, self.L))


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
        """A3 with column r repeated L_r times (I3 x L_total), computed on first use."""
        return np.repeat(self.A3, self.ranks.L, axis=1)

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


def build_H(factors: LL1Factors, mode: int) -> np.ndarray:
    """Coefficient matrix H_n of the mode-n unfolded model X_(n) ~ H_n A_n^T.

    H1 = [c_1 kron A2_1, ..., c_R kron A2_R]          (J1 x L_total)
    H2 = [c_1 kron A1_1, ..., c_R kron A1_R]          (J2 x L_total)
    H3 = [(A2_1 kr A1_1) 1, ..., (A2_R kr A1_R) 1]    (J3 x R)

    Rows are ordered to match `unfold` of the same mode: `H_rows_at` on the
    grid of all fiber coordinates, so both round alike.
    """
    _check_mode(mode)
    fast, slow = (d for k, d in enumerate(factors.dims, start=1) if k != mode)
    h = H_rows_at(factors, mode, np.arange(fast), np.arange(slow)[:, None])
    return h.reshape(fast * slow, -1)


def H_rows_at(factors: LL1Factors, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of H_n for the fibers at coordinates `(a, b)` from
    `fiber_coordinates` (arrays of one shape, or broadcasting to one),
    without checks and without materializing H_n.  Uses the point's cached
    `expanded_A3` and never reads A_n.  Rows are gathered with `take`, which
    copies the same rows as fancy indexing at a fraction of its cost."""
    if mode == 1:
        return factors.expanded_A3.take(b, axis=0) * factors.A2.take(a, axis=0)
    if mode == 2:
        return factors.expanded_A3.take(b, axis=0) * factors.A1.take(a, axis=0)
    return _block_sums(factors.A2.take(b, axis=0) * factors.A1.take(a, axis=0), factors.ranks)


# up to this many block sums, one reduction over the last axis is cheaper
# than `_block_sums`' column loop (a fiber batch makes B * R of them)
_ONE_REDUCTION_MAX = 256


def _block_sums(prod: np.ndarray, ranks: RankVector) -> np.ndarray:
    """Sums over each column block of the last axis of `prod`: the mode-3 H
    rows from the products A2[i2, l] * A1[i1, l].

    The bits are those of `prod[..., blk].sum(axis=-1)` per block.  When all
    blocks have one width, a batch-sized `prod` is reduced in one call over
    its blocks, which adds each block as that `sum` does.  On larger inputs
    numpy's per-row reductions cost more than adding column by column, over
    all rows and blocks at once; since numpy adds fewer than 8 values in
    order, starting from +0.0, that keeps the bits for widths below 8."""
    w = ranks.L[0]
    if ranks.L.count(w) == ranks.R:
        cols = prod.reshape(*prod.shape[:-1], ranks.R, w)
        if prod.size <= _ONE_REDUCTION_MAX * w:
            return cols.sum(axis=-1)
        if w < 8:
            out = cols[..., 0] + 0.0
            for c in range(1, w):
                out += cols[..., c]
            return out
    out = np.empty((*prod.shape[:-1], ranks.R))
    for r, blk in enumerate(ranks.blocks):
        out[..., r] = prod[..., blk].sum(axis=-1)
    return out


def gram_H(factors: LL1Factors, mode: int) -> np.ndarray:
    """H_n^T H_n via the block identity, without materializing H_n.

    For modes 1 and 2, block (r, s) equals (c_r^T c_s) * (M_r^T M_s) with M
    the other spatial factor; for mode 3, entry (r, s) is the total sum of
    (A1_r^T A1_s) hadamard (A2_r^T A2_s).
    """
    _check_mode(mode)
    rk = factors.ranks
    g3 = factors.A3.T @ factors.A3
    if mode in (1, 2):
        m = factors.A2 if mode == 1 else factors.A1
        gm = m.T @ m
        scale = np.repeat(np.repeat(g3, rk.L, axis=0), rk.L, axis=1)
        return gm * scale
    g1 = factors.A1.T @ factors.A1
    g2 = factors.A2.T @ factors.A2
    had = g1 * g2
    out = np.empty((rk.R, rk.R))
    for r in range(rk.R):
        for s in range(rk.R):
            out[r, s] = had[rk.blocks[r], rk.blocks[s]].sum()
    return out


def objective(
    factors: LL1Factors, t: DenseTensor3, reg: Regularizer
) -> ObjectiveValue:
    """Composite objective phi = f + sum_n h(A_n) at the given point."""
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
        raise ValueError("the reconstruction overflows: the factors give non-finite model entries")
    h = sum(penalty_value(reg, factors.factor(n)) for n in (1, 2, 3))
    return ObjectiveValue(f, h, f + h)


def full_gradient(
    factors: LL1Factors, t: DenseTensor3, mode: int, a_mode: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient of f with respect to A_mode, at `factors` with A_mode
    replaced by `a_mode` (None: the point as it is; H_n never reads A_n)."""
    if factors.dims != t.dims:
        raise ValueError(f"factor dims {factors.dims} do not match tensor dims {t.dims}")
    h = build_H(factors, mode)
    # C-contiguous, like the fiber rows of the sampled path: BLAS then sees
    # the same layout and rounds the same as that path on every fiber
    x_n = unfold_contiguous(t, mode)
    return gradient_from_rows(factors.factor(mode) if a_mode is None else a_mode, h, x_n)


def gradient_from_rows(a: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A_n H^T H - X^T H) / (I_n * rows) from matching rows H of H_n and X
    of the mode-n unfolding.  Over all J_n rows this is the exact gradient,
    since I_n * J_n = I1*I2*I3; over a fiber batch it is the SGD estimate.

    One batch (2-D `h` and `x`) takes `ndarray.dot`, which dispatches to the
    same BLAS calls as `@` with less overhead, and subtracts and divides in
    place.  `h` and `x` may also be stacks of batches (k x rows x ...),
    giving k gradients; numpy's stacked matmul makes per batch the BLAS
    calls of the unstacked form, so each keeps its bits."""
    if h.ndim == 2:
        g = a.dot(h.T.dot(h))
        g -= x.T.dot(h)
        g /= a.shape[0] * h.shape[0]
        return g
    return (a @ (h.swapaxes(-1, -2) @ h) - x.swapaxes(-1, -2) @ h) / (a.shape[0] * h.shape[-2])


# `lipschitz_bound`'s relative tolerance on the Rayleigh quotient, and its iteration cap
POWER_TOL, POWER_MAX_ITER = 1e-6, 1000


def lipschitz_bound(factors: LL1Factors, mode: int) -> float:
    """lambda_max(H_n^T H_n) / (I1*I2*I3), by power iteration on the Gram.

    Deterministic all-ones start vector; stops at `POWER_TOL` or after
    `POWER_MAX_ITER` iterations.  A Gram or power iterate that is not
    finite (the factors diverged) gives `math.inf`.
    """
    g = gram_H(factors, mode)
    n3 = factors.dims[0] * factors.dims[1] * factors.dims[2]
    v = np.ones(g.shape[0]) / math.sqrt(g.shape[0])
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = g @ v
        nw = math.sqrt(float(w @ w))  # what np.linalg.norm computes for a vector
        # v > 0 at the start, so a non-finite entry of g makes nw non-finite
        if not 0.0 < nw < math.inf:
            return 0.0 if nw == 0.0 else math.inf
        v = w / nw
        new = float(v @ (g @ v))
        if abs(new - lam) <= POWER_TOL * max(abs(new), 1e-300):
            lam = new
            break
        lam = new
    return lam / n3
