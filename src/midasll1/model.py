"""Rank-(Lr,Lr,1) factor model: reconstruction, objective, H rows and Gram, gradients.

The model approximates X by sum_r (A1_r A2_r^T) outer c_r, where A1_r is
I1 x L_r, A2_r is I2 x L_r and c_r is the r-th column of A3.  The smooth
part of the objective is the scaled squared residual

    f(A1, A2, A3) = ||X - Xhat||_F^2 / (2 * I1 * I2 * I3),

and its mode-n gradient is (A_n H_n^T H_n - X_(n)^T H_n) / (I1*I2*I3) with
the mode-specific coefficient matrix H_n of the other two factors.  No kernel
forms H_n: `H_rows_at` gives rows of it for a fiber batch, `gram_H` its Gram
and `mttkrp` the product X_(n)^T H_n.

Column r of A3 scales the L_r columns of block r: the mode-1 and mode-2
kernels read A3 through `RankVector.column_blocks`.  A point keeps each
mode's Gram, the tensor the two contractions behind `mttkrp` (Y = A3^T X3^T
and M3).  Each is a read-only array kept with the (read-only) factor arrays
it read, and computed anew once one of them is another object.  So a cyclic
sweep contracts the tensor twice, and its objective reuses the last M3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import Regularizer, penalty_value
from .tensor import DenseTensor3, _check_mode, all_finite


def checked_int(v, what: str) -> int:
    """`v` as an `int` when it is a Python or numpy integer; a bool, a float or
    anything else raises ValueError(f"{what}, got {v!r}")."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what}, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class RankVector:
    """Block widths [L_1, ..., L_R] of the paired spatial factors."""

    L: tuple[int, ...]

    def __post_init__(self):
        L = tuple(checked_int(v, "rank widths must be integers") for v in self.L)
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

    @cached_property
    def column_blocks(self) -> np.ndarray:
        """The block of each of the L_total columns, read-only."""
        cb = np.repeat(np.arange(self.R), self.L)
        cb.flags.writeable = False
        return cb


@dataclass(frozen=True)
class LL1Factors:
    """Factor triple (A1, A2, A3) with A1, A2 block-partitioned by `ranks`.

    The constructor copies its inputs and marks them read-only, so writing
    into a factor raises ValueError.  The Grams of `gram_H` are kept on the
    point, ride along to the points `replaced` builds, and are computed anew
    once a factor they read is another object.  A point holds no tensor.
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
            a = np.array(a, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != cols:
                raise ValueError(f"{name} must have {cols} columns, got shape {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A1.shape[0], self.A2.shape[0], self.A3.shape[0])

    def factor(self, mode: int) -> np.ndarray:
        return (self.A1, self.A2, self.A3)[mode - 1]

    def replaced(self, mode: int, a: np.ndarray) -> "LL1Factors":
        """This point with A_mode = `a`, a float64 array of A_mode's shape,
        built without the constructor's checks or copy.  The new point takes
        this one's kept Grams; `gram_H` recomputes those that read `a`."""
        out = object.__new__(LL1Factors)
        out.__dict__.update(self.__dict__)
        out.__dict__[_FACTOR_NAMES[mode - 1]] = a
        return out

    def copy(self) -> "LL1Factors":
        return LL1Factors(self.A1, self.A2, self.A3, self.ranks)


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
    stacked slabs, viewed transposed."""
    i1, i2, i3 = factors.dims
    return (factors.A3 @ _slabs(factors)).reshape(i3, i2, i1).T


def _slabs(factors: LL1Factors) -> np.ndarray:
    """The R slabs A2_r A1_r^T, each flattened in C order, as one C-ordered
    R x (I2*I1) array: row r is column r of H3, in mode-3 unfolding order."""
    i1, i2, _ = factors.dims
    rk = factors.ranks
    slabs = np.empty((rk.R, i2, i1))
    for r, blk in enumerate(rk.blocks):
        slabs[r] = factors.A2[:, blk] @ factors.A1[:, blk].T
    return slabs.reshape(rk.R, i2 * i1)


def H_rows_at(factors: LL1Factors, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of H_n for the fibers at coordinates `(a, b)` from
    `fiber_coordinates` (arrays of one shape, or broadcasting to one),
    without checks, without materializing H_n and without reading A_n.  Rows
    are gathered with `take` (A3's then widened by `column_blocks`), which
    copies the same rows as fancy indexing at a fraction of its cost."""
    if mode in (1, 2):
        c = factors.A3.take(b, axis=0).take(factors.ranks.column_blocks, axis=-1)
        return c * (factors.A2 if mode == 1 else factors.A1).take(a, axis=0)
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


def _kept(owner, name: str, operands: tuple, compute) -> np.ndarray:
    """`compute()`, kept read-only on `owner` (a point or a tensor) under
    `name` with the factor arrays `operands` it reads; returned again while
    each is the same object, computed anew (and kept in its place) if not."""
    kept = owner.__dict__.get(name)
    if kept is None or any(a is not b for a, b in zip(kept[0], operands)):
        kept = owner.__dict__[name] = (operands, compute())
        kept[1].flags.writeable = False
    return kept[1]


def gram_H(factors: LL1Factors, mode: int) -> np.ndarray:
    """H_n^T H_n via the block identity, without materializing H_n.

    For modes 1 and 2, block (r, s) equals (c_r^T c_s) * (M_r^T M_s) with M
    the other spatial factor; for mode 3, entry (r, s) is the total sum of
    (A1_r^T A1_s) hadamard (A2_r^T A2_s).  The Gram reads the two factors
    other than A_n; it is kept on the point, read-only, and computed anew
    when one of them is another object.
    """
    _check_mode(mode)
    others = tuple(factors.factor(m) for m in (1, 2, 3) if m != mode)
    return _kept(factors, f"_gram{mode}", others, lambda: _gram(factors, mode))


def _gram(factors: LL1Factors, mode: int) -> np.ndarray:
    """The Gram that `gram_H` keeps, computed."""
    rk = factors.ranks
    if mode in (1, 2):
        m = factors.A2 if mode == 1 else factors.A1
        gm = m.T @ m
        g3 = factors.A3.T @ factors.A3
        cb = rk.column_blocks
        return gm * g3.take(cb, axis=0).take(cb, axis=1)
    g1 = factors.A1.T @ factors.A1
    g2 = factors.A2.T @ factors.A2
    had = g1 * g2
    out = np.empty((rk.R, rk.R))
    for r in range(rk.R):
        for s in range(rk.R):
            out[r, s] = had[rk.blocks[r], rk.blocks[s]].sum()
    return out


# below this share of ||X||^2, the contraction identity of `objective` has
# cancelled too many digits, and the residual is summed entry by entry
FIT_FLOOR = 1e-6


def objective(
    factors: LL1Factors, t: DenseTensor3, reg: Regularizer
) -> ObjectiveValue:
    """Composite objective phi = f + sum_n h(A_n) at the given point.

    ||X - Xhat||^2 comes from the mode-3 contraction, as the CP fit is taken
    from the MTTKRP (Kolda & Bader, 2009): ||X||^2 - 2 <A3, M3> + <A3 G3, A3>
    with M3 = `mttkrp`(mode 3) and G3 = `gram_H`(mode 3), no reconstruction.
    Its absolute error is a few ulps of ||X||^2 + ||Xhat||^2.  When it is not
    finite or below FIT_FLOOR * ||X||^2, the residual is summed entry by
    entry instead, so a near-exact fit keeps its digits, f is never
    negative, and an overflowing reconstruction raises ValueError."""
    a3 = factors.A3
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sq falls back
        cross = np.vdot(a3, mttkrp(factors, t, 3))
        xhat_sq = np.vdot(a3.dot(gram_H(factors, 3)), a3)
    sq = t.sqnorm - 2.0 * float(cross) + float(xhat_sq)
    if not (math.isfinite(sq) and sq >= FIT_FLOOR * t.sqnorm):
        # the squared residual, formed in place in the F-ordered reconstruction;
        # np.sum follows the memory layout, so it adds in the order it always has
        res = _reconstruction(factors)
        np.subtract(t.array, res, out=res)
        np.multiply(res, res, out=res)
        sq = float(np.sum(res))
        # a non-finite reconstruction makes sq non-finite, so only then look
        if not math.isfinite(sq) and not np.isfinite(_reconstruction(factors)).all():
            raise ValueError("the reconstruction overflows: "
                             "the factors give non-finite model entries")
    f = sq / (2.0 * t.size)
    h = sum(penalty_value(reg, factors.factor(n)) for n in (1, 2, 3))
    return ObjectiveValue(f, h, f + h)


def mttkrp(factors: LL1Factors, t: DenseTensor3, mode: int) -> np.ndarray:
    """X_(n)^T H_n (I_n x the columns of H_n), the LL1 analogue of the
    matricized tensor times Khatri-Rao product, contracted from the tensor's
    column-major storage read in place as the mode-3 unfolding X3: no
    unfolding copy and no H_n, and A_n is never read.

    Modes 1 and 2 take Y = A3^T X3^T, whose row r is the I2 x I1 matrix
    Y_r = sum_i3 c_r[i3] X[:, :, i3]^T, and block r is Y_r^T A2_r (mode 1)
    or Y_r A1_r (mode 2); mode 3 takes M3 = (S X3)^T from the slabs S of
    `_slabs`.  Every operand is C- or F-contiguous or a column block of
    one, so BLAS reads it where it lies.

    The contractions are kept on the tensor `t`, read-only: Y with the A3 it
    read, M3 (which this returns for mode 3) with A1 and A2.  Another object
    in one of those factors makes `_contract` run again, so modes 1 and 2 of
    a sweep share one Y, and the objective after a mode-3 step reuses that
    step's M3.  The point itself keeps nothing of the tensor."""
    if factors.dims != t.dims:
        raise ValueError(f"factor dims {factors.dims} do not match tensor dims {t.dims}")
    _check_mode(mode)
    x = t.array
    if mode == 3:
        return _kept(t, "_m3", (factors.A1, factors.A2), lambda: _contract(factors, x, 3))
    y = _kept(t, "_y", (factors.A3,), lambda: _contract(factors, x, mode))
    i1, i2, _ = t.dims
    other = factors.A2 if mode == 1 else factors.A1
    out = np.empty((t.dims[mode - 1], factors.ranks.total))
    for r, blk in enumerate(factors.ranks.blocks):
        y_r = y[r].reshape(i2, i1)
        out[:, blk] = (y_r.T if mode == 1 else y_r).dot(other[:, blk])
    return out


def _contract(factors: LL1Factors, x: np.ndarray, mode: int) -> np.ndarray:
    """The one pass over the tensor's storage `x`, read as the mode-3
    unfolding X3, behind `mttkrp`: M3 = (S X3)^T for mode 3, Y = A3^T X3^T
    for modes 1 and 2."""
    i1, i2, i3 = x.shape
    x3 = x.reshape(i1 * i2, i3, order="F")
    if mode == 3:
        return _slabs(factors).dot(x3).T
    return factors.A3.T.dot(x3.T)


def full_gradient(factors: LL1Factors, t: DenseTensor3, mode: int) -> np.ndarray:
    """Exact gradient of f with respect to A_mode at `factors`:
    (A_n `gram_H` - `mttkrp`) / (I1*I2*I3)."""
    m = mttkrp(factors, t, mode)  # first: its checks precede `factor(mode)`
    g = factors.factor(mode).dot(gram_H(factors, mode))
    g -= m
    g /= t.size
    return g


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


def lipschitz_bound(factors: LL1Factors, mode: int) -> float:
    """lambda_max(H_n^T H_n) / (I1*I2*I3): the largest eigenvalue of the
    Gram from one symmetric eigensolve.  A Gram that is not finite (the
    factors diverged) gives `math.inf`; a zero Gram gives 0."""
    g = gram_H(factors, mode)
    if not all_finite(g):
        return math.inf
    return float(np.linalg.eigvalsh(g)[-1]) / math.prod(factors.dims)
