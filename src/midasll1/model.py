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
kernels read A3 through `RankVector.column_blocks`; the mode-3 H rows sum
each block through `RankVector.block_indicator`.  A point keeps each
mode's Gram, the tensor the two contractions behind `mttkrp` (Y = A3^T X3^T
and M3).  Each is a read-only array kept with the (read-only) factor arrays
it read, and computed anew once one of them is another object.
`slab_visit` alone reads the tensor: M3 and, given the A3 to read, Y, run
by run, with a full-batch mode-3 update between them.  So each sweep of a
cyclic full-batch solve after the first visits the tensor once.
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
    """Block widths [L_1, ..., L_R] of the paired spatial factors, and the
    column slices, column-to-block index and block indicator they define."""

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

    @cached_property
    def block_indicator(self) -> np.ndarray:
        """The L_total x R float64 0/1 matrix whose column r marks block r's
        columns, read-only: a product with it sums each row's blocks."""
        ind = np.equal.outer(self.column_blocks, np.arange(self.R)).astype(np.float64)
        ind.flags.writeable = False
        return ind


@dataclass(frozen=True)
class LL1Factors:
    """Factor triple (A1, A2, A3) with A1, A2 block-partitioned by `ranks`.

    The constructor copies its inputs, which must be finite, and marks them
    read-only, so writing into a factor raises ValueError.  The Grams of
    `gram_H` are kept on the point, ride along to the points `replaced`
    builds unless they read the factor it replaces, and are computed anew
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
            if not all_finite(a):
                raise ValueError(f"{name} entries must be finite")
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
        this one's kept Gram of mode `mode`, the one Gram that does not read
        A_mode; the other two are dropped, so no superseded factor array
        stays alive through them."""
        out = object.__new__(LL1Factors)
        kept = out.__dict__
        kept.update(self.__dict__)
        kept[_FACTOR_NAMES[mode - 1]] = a
        for name in _GRAMS_READING[mode]:
            kept.pop(name, None)
        return out

    def copy(self) -> "LL1Factors":
        return LL1Factors(self.A1, self.A2, self.A3, self.ranks)

    # a point is also the sequence (A1, A2, A3) that `H_rows_at` and the
    # estimators read, as the solver's steps pass their factor arrays
    def __iter__(self):
        return iter((self.A1, self.A2, self.A3))

    def __getitem__(self, i):
        return (self.A1, self.A2, self.A3)[i]

    @classmethod
    def of(cls, point, ranks: RankVector) -> "LL1Factors":
        """The point of copies of the float64 factor arrays `point` = (A1,
        A2, A3) of `ranks`' shapes, without the constructor's checks: for
        arrays that their owner overwrites later, such as a solver step's,
        which may hold non-finite entries."""
        out = object.__new__(cls)
        out.__dict__.update(zip(_FACTOR_NAMES, (f.copy() for f in point)), ranks=ranks)
        return out


_FACTOR_NAMES = ("A1", "A2", "A3")
# the names under which `gram_H` keeps the Grams that read A_n, by n
_GRAMS_READING = {n: tuple(f"_gram{m}" for m in (1, 2, 3) if m != n) for n in (1, 2, 3)}


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


def H_rows_at(point, ranks: RankVector, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of H_n for the fibers at coordinates `(a, b)` from
    `fiber_coordinates` (arrays of one shape, or broadcasting to one) at the
    factor arrays `point` = (A1, A2, A3) of `ranks` (an `LL1Factors` is
    one), without checks, without materializing H_n and without reading A_n.
    Rows are gathered with `take` (A3's then widened by `column_blocks`),
    which copies the same rows as fancy indexing at a fraction of its cost.

    A mode-3 row is the products A2[i2, l] * A1[i1, l] summed block by
    block, by one product with `block_indicator` in the BLAS kernel's order
    (signed-zero products give +0.0; an infinite one makes the other blocks
    of its row NaN)."""
    a1, a2, a3 = point
    if mode in (1, 2):
        c = a3.take(b, axis=0).take(ranks.column_blocks, axis=-1)
        return c * (a2 if mode == 1 else a1).take(a, axis=0)
    return (a2.take(b, axis=0) * a1.take(a, axis=0)) @ ranks.block_indicator


def _kept_from(owner, name: str, operands: tuple) -> np.ndarray | None:
    """What `owner` (a point or a tensor) keeps under `name` if it read the
    factor arrays `operands`, each the same object, else None."""
    kept = owner.__dict__.get(name)
    if kept is None or any(a is not b for a, b in zip(kept[0], operands)):
        return None
    return kept[1]


def _keep(owner, name: str, operands: tuple, value: np.ndarray) -> np.ndarray:
    """`value`, made read-only and kept on `owner` under `name` with `operands`."""
    value.flags.writeable = False
    owner.__dict__[name] = (operands, value)
    return value


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
    name = f"_gram{mode}"
    g = _kept_from(factors, name, others)
    return _keep(factors, name, others, _gram(factors, mode)) if g is None else g


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
    matricized tensor times Khatri-Rao product, from the two contractions of
    `slab_visit`: no unfolding copy and no H_n, and A_n is never read.

    Modes 1 and 2 take Y = A3^T X3^T, whose row r is the I2 x I1 matrix
    Y_r = sum_i3 c_r[i3] X[:, :, i3]^T, and block r is Y_r^T A2_r (mode 1)
    or Y_r A1_r (mode 2); mode 3 returns M3 = (S X3)^T from the slabs S of
    `_slabs`.

    The contractions are kept on the tensor `t`, read-only: Y with the A3 it
    read, M3 with A1 and A2.  Only when `t` keeps none for this point does
    `mttkrp` visit the tensor: for M3 alone in mode 3, for M3 and Y in modes
    1 and 2.  So modes 1 and 2 of a sweep share one Y, and the objective
    after a mode-3 step reuses that step's M3.  The point itself keeps
    nothing of the tensor."""
    if factors.dims != t.dims:
        raise ValueError(f"factor dims {factors.dims} do not match tensor dims {t.dims}")
    _check_mode(mode)
    if mode == 3:
        m3 = _kept_from(t, "_m3", (factors.A1, factors.A2))
        return slab_visit(factors, t)[0] if m3 is None else m3
    y = _kept_from(t, "_y", (factors.A3,))
    if y is None:
        y = slab_visit(factors, t, factors.A3)[1]
    i1, i2, _ = t.dims
    other = factors.A2 if mode == 1 else factors.A1
    out = np.empty((t.dims[mode - 1], factors.ranks.total))
    for r, blk in enumerate(factors.ranks.blocks):
        y_r = y[r].reshape(i2, i1)
        out[:, blk] = (y_r.T if mode == 1 else y_r).dot(other[:, blk])
    return out


# OpenBLAS multiplies operands with M*N*K up to this bound in a small-matrix
# kernel that reads them in place (on cores that have one, such as
# SkylakeX); above it, each call first packs the whole tensor block it reads
_SMALL_GEMM = 10**6
# under a kernel without that path (Haswell), runs of 1-8 slabs cost 1.2-7x
# the one call, so a shape whose runs would be shorter keeps the one call
_MIN_RUN = 16


def _slab_runs(dims: tuple[int, int, int], R: int) -> tuple[slice, ...]:
    """The runs of mode-3 slabs that `slab_visit` makes one BLAS call each:
    the fewest near-equal runs of c slabs with R*I1*I2*c <= `_SMALL_GEMM`,
    or one run of all I3 slabs when that is one run or the shortest run
    would hold fewer than `_MIN_RUN` slabs."""
    i1, i2, i3 = dims
    widest = _SMALL_GEMM // (R * i1 * i2)
    n = -(-i3 // widest) if widest else 1
    if n == 1 or i3 // n < _MIN_RUN:
        return (slice(0, i3),)
    return tuple(slice(k * i3 // n, (k + 1) * i3 // n) for k in range(n))


def _no_update(run: slice, m3_rows: np.ndarray) -> None:
    """The update of a visit that only contracts."""


def slab_visit(factors: LL1Factors, t: DenseTensor3, out: np.ndarray | None = None,
               update=_no_update) -> tuple[np.ndarray, np.ndarray | None]:
    """The one pass over the tensor's column-major storage, read in place as
    the mode-3 unfolding X3, behind every contraction.  Per run of slabs
    (`_slab_runs`, the contiguous columns X3[:, run]), one BLAS call each:
    the run's rows of M3 = (S X3)^T (the kept M3's, if `t` keeps one for A1
    and A2), then `update(run, m3_rows)`, which may write `out[run]`, then,
    given `out`, those rows' product into Y = out^T X3^T while X3[:, run]
    is still in cache; Y adds the runs in slab order.  Operands are C- or
    F-contiguous or a column block of one, so BLAS reads them in place.

    `mttkrp` visits with no `out` for M3 and with `out` = A3 for Y; a
    full-batch mode-3 step passes the new A3 and the update that writes it.
    Unchecked: `out` is an (I3, R) float64 array.  Returns (M3, Y), Y None
    without `out`.  `t` keeps M3 with A1 and A2 and, given `out`, Y with
    `out` in place of its old Y."""
    x = t.array
    i1, i2, i3 = x.shape
    x3 = x.reshape(i1 * i2, i3, order="F")
    if out is not None:
        t.__dict__.pop("_y", None)  # it read the A3 being replaced: free it first
    m3 = _kept_from(t, "_m3", (factors.A1, factors.A2))
    slabs = None
    if m3 is None:
        slabs = _slabs(factors)
        m3 = np.empty((i3, slabs.shape[0]), order="F")  # the layout of one call's (S X3)^T
    y = None
    for run in _slab_runs(x.shape, factors.ranks.R):
        if slabs is not None:
            m3.T[:, run] = slabs.dot(x3[:, run])
            if run.stop == i3:  # their last use: freed before Y's last product
                slabs = None
        update(run, m3[run])
        if out is not None:
            prod = out[run].T.dot(x3[:, run].T)
            y = prod if y is None else np.add(y, prod, out=y)
    _keep(t, "_m3", (factors.A1, factors.A2), m3)
    if out is not None:
        _keep(t, "_y", (out,), y)
    return m3, y


def full_gradient(factors: LL1Factors, t: DenseTensor3, mode: int) -> np.ndarray:
    """Exact gradient of f with respect to A_mode at `factors`:
    (A_n `gram_H` - `mttkrp`) / (I1*I2*I3)."""
    m = mttkrp(factors, t, mode)  # first: its checks precede `factor(mode)`
    g = factors.factor(mode).dot(gram_H(factors, mode))
    g -= m
    g /= t.size
    return g


def gradient_from_rows(
    a: np.ndarray, h: np.ndarray, x: np.ndarray, divisor: float | None,
    out: np.ndarray | None = None
) -> np.ndarray:
    """((H A_n^T - X)^T H) / divisor from matching rows H of H_n and X of
    the mode-n unfolding, written into `out` when given: the batch residual,
    then one product.  Over all J_n rows at divisor I1*I2*I3 this is the
    exact gradient, over one of n_bins bins at I_n * J_n / n_bins the SGD
    estimate; `divisor` None skips the division (the SAGA table's rows).
    X is only subtracted, so its memory layout changes no bit.

    One batch (2-D `h` and `x`) takes `ndarray.dot`, the BLAS calls of `@`
    with less overhead.  Stacks of batches (k x rows x ...) give k
    gradients; numpy's stacked matmul makes per batch the BLAS calls of the
    unstacked form, so each keeps its bits."""
    if h.ndim == 2:
        r = h.dot(a.T)
        r -= x
        g = r.T.dot(h, out=out)
    else:
        r = h @ a.T
        r -= x
        g = np.matmul(r.swapaxes(-1, -2), h, out=out)
    if divisor is not None:
        g /= divisor
    return g


def lipschitz_bound(factors: LL1Factors, mode: int) -> float:
    """lambda_max(H_n^T H_n) / (I1*I2*I3): the largest eigenvalue of the
    Gram from one symmetric eigensolve.  A Gram that is not finite (the
    factors diverged) gives `math.inf`; a zero Gram gives 0."""
    g = gram_H(factors, mode)
    if not all_finite(g):
        return math.inf
    return float(np.linalg.eigvalsh(g)[-1]) / math.prod(factors.dims)
