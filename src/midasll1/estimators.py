"""Stochastic gradient estimators over fiber batches: vanilla SGD, SAGA, SARAH.

All estimators are deterministic functions of (state, evaluation point,
batch): the randomness lives in the caller's sampling of batches and bins.
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
from .tensor import (
    DenseTensor3,
    FiberBatch,
    fiber_coordinates,
    fiber_rows_at,
    row_count,
    unfold_contiguous,
)

ESTIMATOR_KINDS = ("sgd", "saga", "sarah")

# the warm start fills the SAGA table in chunks of bins whose rows, H rows,
# Grams and gradients take at most this many bytes (at least one bin)
_WARM_CHUNK_BYTES = 1 << 20


def sgd_estimate(factors: LL1Factors, t: DenseTensor3, batch: FiberBatch) -> np.ndarray:
    """Fiber-sampled stochastic gradient of f with respect to A_mode.

    g = (A_n H_n(F)^T H_n(F) - X_n(F)^T H_n(F)) / (I_n * B), with H_n(F)
    built row-wise for the sampled fibers only.  With B = J_n this equals
    the exact full gradient: both evaluate `gradient_from_rows`.
    """
    jn = row_count(t.dims, batch.mode)
    if batch.indices.max() >= jn:
        raise IndexError(f"fiber index out of range for J_{batch.mode}={jn}")
    a, b = fiber_coordinates(t.dims, batch.mode, batch.indices)
    return fiber_gradient(factors, batch.mode, a, b, fiber_rows_at(t, batch.mode, a, b))


def fiber_gradient(
    factors: LL1Factors, mode: int, a: np.ndarray, b: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """`sgd_estimate` at fiber coordinates `(a, b)` with the gathered rows `x`
    of the unfolding, without checks."""
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
    (fresh and stored bin gradients cancel: both come from `fiber_gradient`
    on the same rows).  The running mean is maintained incrementally and
    recomputed from the table once per full sweep to keep drift below the
    documented 1e-10 consistency bound.

    `table[mode]` stacks the bin gradients (n_bins x I_n x L).  Bin i of a
    mode with batch size B holds fibers iB to iB + B - 1; `fibers[mode]`
    holds their coordinates (n_bins x B each, from `fiber_coordinates`).  A
    mode-1 bin's rows are read as a view of the unfolding, the other modes'
    are gathered.  The warm start fills the table a chunk of bins at a time:
    one view (or gather) of their rows, one `H_rows_at` and one stacked
    `gradient_from_rows`, which gives every entry the bits of
    `fiber_gradient` on that bin alone.
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
                if mode == 1:
                    x = unfold_contiguous(t, 1)[lo * size:hi * size]
                else:
                    x = fiber_rows_at(t, mode, a[lo:hi].ravel(), b[lo:hi].ravel())
                grads[lo:hi] = fiber_gradient(
                    factors, mode, a[lo:hi], b[lo:hi], x.reshape(hi - lo, size, i_n)
                )
            state.running_mean[mode] = _table_mean(grads)
        return state

    def n_bins(self, mode: int) -> int:
        return len(self.table[mode])

    def _bin_gradient(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, bin_id: int
    ) -> np.ndarray:
        a, b = self.fibers[mode]
        a, b = a[bin_id], b[bin_id]
        if mode == 1:
            x = unfold_contiguous(t, 1)[bin_id * a.size:(bin_id + 1) * a.size]
        else:
            x = fiber_rows_at(t, mode, a, b)
        return fiber_gradient(factors, mode, a, b, x)

    def estimate(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, bin_id: int
    ) -> np.ndarray:
        """g = fresh - stored + running_mean; then the table and mean are updated."""
        fresh = self._bin_gradient(factors, t, mode, bin_id)
        diff = fresh - self.table[mode][bin_id]
        mean = self.running_mean[mode]
        g = diff + mean
        nb = self.n_bins(mode)
        self.running_mean[mode] = mean + diff / nb
        self.table[mode][bin_id] = fresh
        self.updates_since_recompute[mode] += 1
        if self.updates_since_recompute[mode] >= nb:
            self.running_mean[mode] = _table_mean(self.table[mode])
            self.updates_since_recompute[mode] = 0
        return g

    def mean_drift(self, mode: int) -> float:
        """Distance between the incremental mean and a direct recomputation."""
        return float(np.linalg.norm(self.running_mean[mode] - _table_mean(self.table[mode])))


def _table_mean(grads: np.ndarray) -> np.ndarray:
    """Mean of the stacked bin gradients, summed in bin order: a reduction
    over the outer axis adds whole bins in turn, and starting from -0.0
    keeps a sum of signed zeros signed, as the sum of the bins alone is."""
    return np.add.reduce(grads, axis=0, initial=-0.0) / len(grads)


@dataclass
class SarahState:
    """Recursive difference direction per mode with periodic full restarts.

    At a restart (counter == 0) the direction is the exact full gradient at
    the current evaluation point; otherwise it is corrected by the batch
    gradient difference between the current and the previously seen point,
    both evaluated on one gather of the batch's rows.
    """

    q: dict[int, int]
    v: dict[int, np.ndarray] = field(default_factory=dict)
    prev_point: dict[int, LL1Factors] = field(default_factory=dict)
    counter: dict[int, int] = field(default_factory=dict)

    def estimate(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, idx: np.ndarray
    ) -> np.ndarray:
        """The direction at `factors` for the batch of fiber indices `idx`,
        which must be distinct and in range (they are not checked)."""
        c = self.counter.get(mode, 0)
        if c == 0:
            v = full_gradient(factors, t, mode)
        else:
            a, b = fiber_coordinates(t.dims, mode, idx)
            x = fiber_rows_at(t, mode, a, b)
            v = (
                fiber_gradient(factors, mode, a, b, x)
                - fiber_gradient(self.prev_point[mode], mode, a, b, x)
                + self.v[mode]
            )
        self.v[mode] = v
        self.prev_point[mode] = factors
        self.counter[mode] = (c + 1) % self.q[mode]
        return v


def estimator_mse_probe(
    kind: str,
    state,
    factors: LL1Factors,
    t: DenseTensor3,
    mode: int,
    batch_size: int,
    n_draws: int,
    rng: np.random.Generator,
    return_draws: bool = False,
):
    """Monte-Carlo estimate of E||g_tilde - grad f||_F^2 at a fixed point.

    Persistent estimator state is deep-copied per draw, so probing never
    perturbs the solver's state.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    exact = full_gradient(factors, t, mode)
    jn = row_count(t.dims, mode)
    sq = np.empty(n_draws)
    for d in range(n_draws):
        if kind == "saga":
            bin_id = int(rng.integers(state.n_bins(mode)))
            g = copy.deepcopy(state).estimate(factors, t, mode, bin_id)
        else:
            idx = rng.choice(jn, size=min(batch_size, jn), replace=False)
            if kind == "sarah":
                g = copy.deepcopy(state).estimate(factors, t, mode, idx)
            else:
                g = sgd_estimate(factors, t, FiberBatch(mode, idx))
        sq[d] = float(np.sum((g - exact) ** 2))
    mse = float(sq.mean())
    return (mse, sq) if return_draws else mse
