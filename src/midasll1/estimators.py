"""Stochastic gradient estimators over fiber batches: vanilla SGD, SAGA, SARAH.

The three share one protocol.  `draw(modes, rng)` gives the pick of each
step of an epoch's modes, in step order: a batch of fiber indices (None for
every fiber) for SGD and SARAH, a bin for SAGA.  `estimate(factors, t, mode,
pick)` is the gradient estimate on that pick at the point `factors`, a
deterministic function of (state, point, pick): all the randomness is in
`draw`, which reads only the caller's generator.

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

# the warm start fills the SAGA table in chunks of bins whose rows, H rows,
# Grams and gradients take at most this many bytes (at least one bin)
_WARM_CHUNK_BYTES = 1 << 20


def batch_gradient(
    factors: LL1Factors, t: DenseTensor3, mode: int, idx: np.ndarray | None
) -> np.ndarray:
    """Fiber-sampled stochastic gradient of f with respect to A_mode at `factors`.

    g = (A_n H_n(F)^T H_n(F) - X_n(F)^T H_n(F)) / (I_n * B) over the
    distinct, in-range fiber indices `idx` (not checked), with H_n(F) built
    row-wise for the sampled fibers only.  `idx` None takes every fiber, by
    `full_gradient`; a batch of all J_n fibers gives the same gradient up to
    rounding, since `full_gradient` contracts the tensor in another order."""
    if idx is None:
        return full_gradient(factors, t, mode)
    a, b = fiber_coordinates(t.dims, mode, idx)
    x = fiber_rows_at(t, mode, a, b)
    return gradient_from_rows(factors.factor(mode), H_rows_at(factors, mode, a, b), x)


def largest_divisor_at_most(jn: int, b: int) -> int:
    b = min(b, jn)
    while jn % b != 0:
        b -= 1
    return b


@dataclass
class SagaState:
    """Per-mode gradient table over fixed disjoint fiber bins plus running mean.

    The table is warm-started with the bin gradients at the initial point, so
    a SAGA estimate at an unchanged point reduces exactly to the running mean
    (fresh and stored bin gradients cancel: both are `gradient_from_rows` on
    the same rows).  The running mean is maintained incrementally and
    recomputed from the table once per full sweep to keep drift below the
    documented 1e-10 consistency bound.

    `table[mode]` stacks the bin gradients (n_bins x I_n x L).  Bin i of a
    mode with batch size B holds fibers iB to iB + B - 1; `fibers[mode]`
    holds their coordinates (n_bins x B each, from `fiber_coordinates`).
    `_bin_rows` reads a bin's rows of the unfolding without an index
    gather where it can: mode 1 slices a view of the column-major storage,
    mode 3 copies a row slice of the column-major (J3 x I3) view, and mode 2
    gathers them with `fiber_rows_at`.  Each is C-contiguous, as the rows of
    `fiber_rows_at` are, so BLAS rounds them alike.  The warm start fills the
    table a chunk of bins at a time: one `_bin_rows` for their rows, one
    `H_rows_at` and one stacked `gradient_from_rows`, which gives every entry
    the bits of `batch_gradient` on that bin alone.
    """

    table: dict[int, np.ndarray]
    running_mean: dict[int, np.ndarray]
    updates_since_recompute: dict[int, int] = field(default_factory=dict)
    fibers: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def warm_start(
        cls, factors: LL1Factors, t: DenseTensor3, batches: dict[int, int]
    ) -> "SagaState":
        """The table at `factors` for each mode's batch size B, which must divide J_n."""
        state = cls(table={}, running_mean={},
                    updates_since_recompute={m: 0 for m in batches})
        for mode, size in batches.items():
            jn = row_count(t.dims, mode)
            if size < 1 or jn % size != 0:
                raise ValueError(f"batch size {size} must divide J_{mode}={jn}")
            n_bins = jn // size
            a, b = fiber_coordinates(t.dims, mode, np.arange(jn).reshape(n_bins, size))
            state.fibers[mode] = (a, b)
            i_n, width = factors.factor(mode).shape
            step = max(1, _WARM_CHUNK_BYTES // (8 * (size + width) * (i_n + width)))
            state.table[mode] = grads = np.empty((n_bins, i_n, width))
            for lo in range(0, n_bins, step):
                hi = min(lo + step, n_bins)
                x = _bin_rows(t, mode, a[lo:hi].ravel(), b[lo:hi].ravel(), lo * size)
                grads[lo:hi] = gradient_from_rows(
                    factors.factor(mode), H_rows_at(factors, mode, a[lo:hi], b[lo:hi]),
                    x.reshape(hi - lo, size, i_n),
                )
            state.running_mean[mode] = _table_mean(grads)
        return state

    def n_bins(self, mode: int) -> int:
        return len(self.table[mode])

    def draw(self, modes: list[int], rng: np.random.Generator) -> list[int]:
        """A bin for each step of `modes`: one draw of `rng.integers(n_bins(mode))`
        per step whose mode has more than one bin (0 otherwise, as for a mode
        the state does not hold), made in one call."""
        counts = np.array([0] + [len(self.table.get(m, ())) for m in (1, 2, 3)])[modes]
        ids = np.zeros(counts.size, dtype=np.intp)
        many = counts > 1
        if many.any():
            ids[many] = rng.integers(counts[many])
        return ids.tolist()

    def estimate(self, factors: LL1Factors, t: DenseTensor3, mode: int, bin_id: int) -> np.ndarray:
        """g = fresh - stored + running_mean, with the fresh bin gradient
        taken at `factors`; then the table and mean are updated."""
        a, b = self.fibers[mode]
        a, b = a[bin_id], b[bin_id]
        fresh = gradient_from_rows(
            factors.factor(mode),
            H_rows_at(factors, mode, a, b),
            _bin_rows(t, mode, a, b, bin_id * a.size),
        )
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
    `fiber_rows_at`, C-contiguous, without its index gather for modes 1
    and 3 (see `SagaState`)."""
    stop = start + a.size
    if mode == 1:
        return t.array.T.reshape(-1, t.dims[0])[start:stop]
    if mode == 3:
        return np.ascontiguousarray(t.array.reshape(-1, t.dims[2], order="F")[start:stop])
    return fiber_rows_at(t, mode, a, b)


def _table_mean(grads: np.ndarray) -> np.ndarray:
    """Mean of the stacked bin gradients, summed in bin order: a reduction
    over the outer axis adds whole bins in turn, and starting from -0.0
    keeps a sum of signed zeros signed, as the sum of the bins alone is."""
    return np.add.reduce(grads, axis=0, initial=-0.0) / len(grads)


@dataclass
class SgdState:
    """Vanilla SGD: uniform fiber batches of size B_n per mode, no gradient
    state; `estimate` is `batch_gradient`."""

    dims: tuple[int, int, int]
    batches: dict[int, int]

    estimate = staticmethod(batch_gradient)

    def draw(self, modes: list[int], rng: np.random.Generator) -> list[np.ndarray | None]:
        """Fibers for each step of `modes`: None (every fiber, no draw) where
        B_n = J_n, otherwise B_n distinct fibers of J_n from one `rng.choice`
        call without replacement."""
        jn = {n: row_count(self.dims, n) for n in self.batches}
        return [None if self.batches[n] == jn[n]
                else rng.choice(jn[n], size=self.batches[n], replace=False) for n in modes]


@dataclass
class SarahState(SgdState):
    """Recursive difference direction per mode with periodic full restarts,
    on SGD's fiber batches.

    At a restart (counter == 0) the direction is the exact full gradient at
    the current evaluation point, and the step's batch goes unread;
    otherwise it is corrected by the batch gradient difference between the
    current and the previously seen point, both evaluated on one gather of
    the batch's rows.
    """

    q: dict[int, int]
    v: dict[int, np.ndarray] = field(default_factory=dict)
    prev_point: dict[int, LL1Factors] = field(default_factory=dict)
    counter: dict[int, int] = field(default_factory=dict)

    def estimate(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, idx: np.ndarray | None
    ) -> np.ndarray:
        """The direction at `factors` for the batch of fiber indices `idx`
        (None: every fiber), which must be distinct and in range (they are not
        checked).  `prev_point[mode]` becomes `factors`."""
        c = self.counter.get(mode, 0)
        if c == 0:
            v = full_gradient(factors, t, mode)
        else:
            if idx is None:
                idx = np.arange(row_count(t.dims, mode))
            a, b = fiber_coordinates(t.dims, mode, idx)
            x = fiber_rows_at(t, mode, a, b)
            prev = self.prev_point[mode]
            v = (
                gradient_from_rows(factors.factor(mode), H_rows_at(factors, mode, a, b), x)
                - gradient_from_rows(prev.factor(mode), H_rows_at(prev, mode, a, b), x)
                + self.v[mode]
            )
        self.v[mode] = v
        self.prev_point[mode] = factors
        self.counter[mode] = (c + 1) % self.q[mode]
        return v


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
    perturbs the solver's state.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    exact = full_gradient(factors, t, mode)
    sq = np.empty(n_draws)
    for d in range(n_draws):
        (pick,) = state.draw([mode], rng)
        g = copy.deepcopy(state).estimate(factors, t, mode, pick)
        sq[d] = float(np.sum((g - exact) ** 2))
    mse = float(sq.mean())
    return (mse, sq) if return_draws else mse
