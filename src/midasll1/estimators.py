"""Stochastic gradient estimators over fiber bins: vanilla SGD, SAGA, SARAH.

The three share one protocol.  Each mode's fibers are split once per run
into J_n / B_n bins of B_n fibers: for SGD and SARAH the bins of one random
permutation, drawn by the first `draw`, for SAGA consecutive fiber ranges.
`draw(modes, rng)` gives the pick of each step of an epoch's modes, in step
order: a bin, or for SGD and SARAH None (every fiber) where B_n = J_n.
`estimate(factors, t, mode, pick)` is the gradient estimate on that pick at
the point `factors`, a deterministic function of (state, point, pick): all
the randomness is in `draw`, which reads only the caller's generator.

A variance-reduced estimator in the sense used here keeps a mean squared
error bound that contracts as the iterates converge; SAGA achieves this with
a stored per-bin gradient table plus running average, SARAH with a recursive
difference direction refreshed by periodic full-gradient restarts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .model import H_rows_at, LL1Factors, full_gradient, gradient_from_rows
from .tensor import DenseTensor3, fiber_coordinates, fiber_rows_at, row_count

ESTIMATOR_KINDS = ("sgd", "saga", "sarah")

# the warm start fills the SAGA table in chunks of bins whose rows, H rows
# and residuals take at most this many bytes (at least one bin); the
# gradients go straight into the table
_WARM_CHUNK_BYTES = 1 << 20


def batch_gradient(
    factors: LL1Factors, t: DenseTensor3, mode: int, idx: np.ndarray | None
) -> np.ndarray:
    """Fiber-sampled stochastic gradient of f with respect to A_mode at `factors`.

    g = ((H_n(F) A_n^T - X_n(F))^T H_n(F)) / (I_n * B) over the
    distinct, in-range fiber indices `idx` (not checked), with H_n(F) built
    row-wise for the sampled fibers only.  `idx` None takes every fiber, by
    `full_gradient`; a batch of all J_n fibers gives the same gradient up to
    rounding, since `full_gradient` contracts the tensor in another order."""
    if idx is None:
        return full_gradient(factors, t, mode)
    a, b = fiber_coordinates(t.dims, mode, idx)
    return _rows_gradient(factors, mode, a, b, fiber_rows_at(t, mode, a, b))


def _rows_gradient(factors: LL1Factors, mode: int, a, b, x: np.ndarray) -> np.ndarray:
    """`gradient_from_rows` at `factors` on the fibers at `(a, b)`, whose rows are `x`."""
    return gradient_from_rows(factors.factor(mode), H_rows_at(factors, mode, a, b), x)


def largest_divisor_at_most(jn: int, b: int) -> int:
    b = min(b, jn)
    while jn % b != 0:
        b -= 1
    return b


@dataclass
class SgdState:
    """Vanilla SGD on bins of B_n fibers per mode (B_n must divide J_n), no
    gradient state.  `fibers[mode]` holds the coordinates of the mode's bins
    (n_bins x B_n each, from `fiber_coordinates`); `draw` cuts SGD's and
    SARAH's, and a mode with B_n = J_n has none: its pick is None."""

    dims: tuple[int, int, int]
    batches: dict[int, int]
    fibers: dict[int, tuple[np.ndarray, np.ndarray]] | None = field(default=None, init=False)

    def __post_init__(self):
        for mode, size in self.batches.items():
            jn = row_count(self.dims, mode)
            if size < 1 or jn % size:
                raise ValueError(f"batch size {size} must divide J_{mode}={jn}")

    def draw(self, modes: list[int], rng: np.random.Generator) -> list[int | None]:
        """A bin for each step of `modes`: None on a mode without bins, 0 on a
        mode of one bin, and one `rng.integers(n_bins)` draw for each other
        step, all made in one call.  An SGD or SARAH state's first call first
        cuts its bins, from one `rng.permutation(J_n)` per mode in order."""
        if self.fibers is None:
            jn = {n: row_count(self.dims, n) for n in self.batches}
            self.fibers = {n: fiber_coordinates(self.dims, n, rng.permutation(jn[n]).reshape(-1, size))
                           for n, size in sorted(self.batches.items()) if size < jn[n]}
        if not self.fibers:  # every batch is full, as in PALM: nothing to draw
            return [None] * len(modes)
        bins = [0] + [len(self.fibers[m][0]) if m in self.fibers else 0 for m in (1, 2, 3)]
        counts = np.array(bins)[modes]
        picks = np.where(counts > 0, 0, None)
        many = counts > 1
        picks[many] = rng.integers(counts[many])  # an empty draw leaves `rng` as it was
        return picks.tolist()

    def estimate(self, factors: LL1Factors, t: DenseTensor3, mode: int, pick: int | None) -> np.ndarray:
        """The batch gradient on bin `pick` at `factors` (None: `full_gradient`)."""
        if pick is None:
            return full_gradient(factors, t, mode)
        a, b = self.fibers[mode]
        a, b = a[pick], b[pick]
        return _rows_gradient(factors, mode, a, b, fiber_rows_at(t, mode, a, b))


@dataclass
class SarahState(SgdState):
    """Recursive difference direction per mode with periodic full restarts,
    on SGD's bins.

    At a restart (counter == 0) and on a mode without bins (pick None) the
    direction is the exact full gradient at the current evaluation point,
    and the step's bin goes unread; otherwise it is corrected by the bin
    gradient difference between the current and the previously seen point,
    both evaluated on one gather of the bin's rows.
    """

    q: dict[int, int]
    v: dict[int, np.ndarray] = field(default_factory=dict)
    prev_point: dict[int, LL1Factors] = field(default_factory=dict)
    counter: dict[int, int] = field(default_factory=dict)

    def estimate(self, factors: LL1Factors, t: DenseTensor3, mode: int, pick: int | None) -> np.ndarray:
        """The direction at `factors` for bin `pick`.  `prev_point[mode]`
        becomes `factors`."""
        count = self.counter.get(mode, 0)
        if count == 0 or pick is None:
            v = full_gradient(factors, t, mode)
        else:
            a, b = self.fibers[mode]
            a, b = a[pick], b[pick]
            x = fiber_rows_at(t, mode, a, b)
            v = (_rows_gradient(factors, mode, a, b, x)
                 - _rows_gradient(self.prev_point[mode], mode, a, b, x) + self.v[mode])
        self.v[mode] = v
        self.prev_point[mode] = factors
        self.counter[mode] = (count + 1) % self.q[mode]
        return v


@dataclass
class SagaState(SgdState):
    """Per-mode gradient table over fixed disjoint fiber bins plus running mean.

    The table is warm-started with the bin gradients at the initial point, so
    a SAGA estimate at an unchanged point reduces exactly to the running mean
    (fresh and stored bin gradients cancel: both are `gradient_from_rows` on
    the same rows).  The running mean is maintained incrementally and
    recomputed from the table once per full sweep to keep drift below the
    documented 1e-10 consistency bound.

    `table[mode]` stacks the bin gradients (n_bins x I_n x L).  Bin i of a
    mode with batch size B holds fibers iB to iB + B - 1 (a mode of one bin
    too), whose coordinates the warm start puts in `fibers`, and `_bin_rows`
    reads its rows.  The warm start fills the table a chunk of bins at a
    time: one `_bin_rows` for their rows, one `H_rows_at` and one stacked
    `gradient_from_rows` written into the table in place (two BLAS calls per
    bin), which gives every entry the bits of `batch_gradient` on that bin.
    """

    table: dict[int, np.ndarray] = field(default_factory=dict)
    running_mean: dict[int, np.ndarray] = field(default_factory=dict)
    updates_since_recompute: dict[int, int] = field(default_factory=dict)

    @classmethod
    def warm_start(
        cls, factors: LL1Factors, t: DenseTensor3, batches: dict[int, int]
    ) -> "SagaState":
        """The table at `factors` for each mode's batch size B, which must divide J_n."""
        state = cls(t.dims, batches, updates_since_recompute={m: 0 for m in batches})
        state.fibers = {}
        for mode, size in batches.items():
            jn = row_count(t.dims, mode)
            n_bins = jn // size
            state.fibers[mode] = a, b = fiber_coordinates(t.dims, mode, np.arange(jn).reshape(-1, size))
            i_n, width = factors.factor(mode).shape
            step = max(1, _WARM_CHUNK_BYTES // (8 * size * (2 * i_n + width)))
            state.table[mode] = grads = np.empty((n_bins, i_n, width))
            for lo in range(0, n_bins, step):
                hi = min(lo + step, n_bins)
                x = _bin_rows(t, mode, a[lo:hi].ravel(), b[lo:hi].ravel(), lo * size)
                gradient_from_rows(
                    factors.factor(mode), H_rows_at(factors, mode, a[lo:hi], b[lo:hi]),
                    x.reshape(hi - lo, size, i_n), out=grads[lo:hi],
                )
            state.running_mean[mode] = _table_mean(grads)
        return state

    def n_bins(self, mode: int) -> int:
        return len(self.table[mode])

    def estimate(self, factors: LL1Factors, t: DenseTensor3, mode: int, bin_id: int) -> np.ndarray:
        """g = fresh - stored + running_mean, with the fresh bin gradient
        taken at `factors`; then the table and mean are updated."""
        a, b = self.fibers[mode]
        a, b = a[bin_id], b[bin_id]
        fresh = _rows_gradient(factors, mode, a, b, _bin_rows(t, mode, a, b, bin_id * a.size))
        table = self.table[mode]
        diff = fresh - table[bin_id]
        mean = self.running_mean[mode]
        g = diff + mean
        nb = len(table)
        diff /= nb
        mean += diff
        table[bin_id] = fresh
        self.updates_since_recompute[mode] += 1
        if self.updates_since_recompute[mode] >= nb:
            self.running_mean[mode] = _table_mean(table)
            self.updates_since_recompute[mode] = 0
        return g

    def mean_drift(self, mode: int) -> float:
        """Distance between the incremental mean and a direct recomputation."""
        return float(np.linalg.norm(self.running_mean[mode] - _table_mean(self.table[mode])))


def _bin_rows(t: DenseTensor3, mode: int, a: np.ndarray, b: np.ndarray, start: int) -> np.ndarray:
    """The rows of the mode-n unfolding for the consecutive fibers `start`,
    `start + 1`, ... at the 1-D coordinates `(a, b)`: the rows of
    `fiber_rows_at`, for modes 1 and 3 as a view of the column-major storage
    without its index gather.  The rows only enter the residual's
    subtraction, so their layout changes no bit."""
    stop = start + a.size
    if mode == 1:
        return t.array.T.reshape(-1, t.dims[0])[start:stop]
    if mode == 3:
        return t.array.reshape(-1, t.dims[2], order="F")[start:stop]
    return fiber_rows_at(t, mode, a, b)


def _table_mean(grads: np.ndarray) -> np.ndarray:
    """Mean of the stacked bin gradients, summed in bin order: a reduction
    over the outer axis adds whole bins in turn, and starting from -0.0
    keeps a sum of signed zeros signed, as the sum of the bins alone is."""
    return np.add.reduce(grads, axis=0, initial=-0.0) / len(grads)


def estimator_mse_probe(
    state,
    factors: LL1Factors,
    t: DenseTensor3,
    mode: int,
    n_draws: int,
    rng: np.random.Generator,
    return_draws: bool = False,
):
    """Monte-Carlo estimate of E||g_tilde - grad f||_F^2 at a fixed point,
    each draw's pick from `state.draw([mode], rng)`.

    Persistent estimator state is deep-copied per draw, so probing never
    perturbs the solver's state; the bins' coordinates, which no estimate
    writes, are shared with the copy.  The draws are made on a shallow copy
    of `state`, so a state whose bins are not cut yet stays uncut.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    exact = full_gradient(factors, t, mode)
    sq = np.empty(n_draws)
    drawn = copy.copy(state)
    for d in range(n_draws):
        (pick,) = drawn.draw([mode], rng)
        g = copy.deepcopy(drawn, {id(drawn.fibers): drawn.fibers}).estimate(factors, t, mode, pick)
        sq[d] = float(np.sum((g - exact) ** 2))
    mse = float(sq.mean())
    return (mse, sq) if return_draws else mse
