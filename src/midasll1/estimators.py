"""Stochastic gradient estimators over fiber batches: vanilla SGD, SAGA, SARAH.

All estimators are deterministic functions of (state, evaluation point,
batch): the randomness lives in the caller's sampling of batches and bins.
A variance-reduced estimator in the sense used here keeps a mean squared
error bound that contracts as the iterates converge; SAGA achieves this with
a stored per-bin gradient table plus running average, SARAH with a recursive
difference direction refreshed by periodic full-gradient restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import H_rows_at, LL1Factors, full_gradient
from .tensor import (
    DenseTensor3,
    FiberBatch,
    fiber_coordinates,
    fiber_rows_at,
    gather_fiber_rows,
    mode1_rows,
    row_count,
)

ESTIMATOR_KINDS = ("sgd", "saga", "sarah")


def sgd_estimate(factors: LL1Factors, t: DenseTensor3, batch: FiberBatch) -> np.ndarray:
    """Fiber-sampled stochastic gradient of f with respect to A_mode.

    g = (A_n H_n(F)^T H_n(F) - X_n(F)^T H_n(F)) / (I_n * B), with H_n(F)
    built row-wise for the sampled fibers only.  With B = J_n this equals
    the exact full gradient, since I_n * J_n = I1*I2*I3.
    """
    x = gather_fiber_rows(t, batch)
    a, b = fiber_coordinates(t.dims, batch.mode, batch.indices)
    return fiber_gradient(factors, batch.mode, a, b, x)


def fiber_gradient(
    factors: LL1Factors, mode: int, a: np.ndarray, b: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """`sgd_estimate` at fiber coordinates `(a, b)` with the gathered rows `x`
    of the unfolding, without checks."""
    h = H_rows_at(factors, mode, a, b)
    u = factors.factor(mode)
    return (u @ (h.T @ h) - x.T @ h) / (u.shape[0] * a.size)


def make_bins(jn: int, b: int) -> list[np.ndarray]:
    """Partition fiber indices 0..J_n-1 into consecutive bins of size b (b | J_n)."""
    if jn % b != 0:
        raise ValueError(f"bin size {b} must divide J_n={jn}")
    return [np.arange(i * b, (i + 1) * b) for i in range(jn // b)]


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

    `table[mode]` stacks the bin gradients (n_bins x I_n x L).  The bins of a
    mode have one size; `fibers[mode]` holds their fiber coordinates
    (n_bins x B each, from `fiber_coordinates`) and, when every bin is a run
    of consecutive mode-1 fibers, each bin's first row, so that its rows are
    read as a view of the unfolding instead of gathered.
    """

    bins: dict[int, list[np.ndarray]]
    table: dict[int, np.ndarray]
    running_mean: dict[int, np.ndarray]
    updates_since_recompute: dict[int, int] = field(default_factory=dict)
    fibers: dict[int, tuple[np.ndarray, np.ndarray, list[int] | None]] = field(
        default_factory=dict
    )

    @classmethod
    def warm_start(
        cls, factors: LL1Factors, t: DenseTensor3, bins: dict[int, list[np.ndarray]]
    ) -> "SagaState":
        state = cls(bins=bins, table={}, running_mean={},
                    updates_since_recompute={m: 0 for m in bins})
        for mode, mode_bins in bins.items():
            rows = np.stack(mode_bins)  # raises unless the bins have one size
            a, b = fiber_coordinates(t.dims, mode, rows)
            runs = mode == 1 and bool((np.diff(rows, axis=1) == 1).all())
            state.fibers[mode] = (a, b, rows[:, 0].tolist() if runs else None)
            grads = np.empty((len(mode_bins), *factors.factor(mode).shape))
            for i in range(len(mode_bins)):
                grads[i] = state._bin_gradient(factors, t, mode, i)
            state.table[mode] = grads
            state.running_mean[mode] = _table_mean(grads)
        return state

    def n_bins(self, mode: int) -> int:
        return len(self.bins[mode])

    def _bin_gradient(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, bin_id: int
    ) -> np.ndarray:
        a, b, starts = self.fibers[mode]
        a, b = a[bin_id], b[bin_id]
        if starts is None:
            x = fiber_rows_at(t, mode, a, b)
        else:
            x = mode1_rows(t, slice(starts[bin_id], starts[bin_id] + a.size))
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

    def clone(self) -> "SagaState":
        return SagaState(
            bins=self.bins,
            table={m: gs.copy() for m, gs in self.table.items()},
            running_mean={m: v.copy() for m, v in self.running_mean.items()},
            updates_since_recompute=dict(self.updates_since_recompute),
            fibers=self.fibers,
        )


def _table_mean(grads: np.ndarray) -> np.ndarray:
    """Mean of the stacked bin gradients, summed in bin order."""
    return sum(grads[1:], start=grads[0].copy()) / len(grads)


@dataclass
class SarahState:
    """Recursive difference direction per mode with periodic full restarts.

    At a restart (counter == 0) the direction is the exact full gradient at
    the current evaluation point; otherwise it is corrected by the batch
    gradient difference between the current and the previously seen point.
    """

    q: dict[int, int]
    v: dict[int, np.ndarray] = field(default_factory=dict)
    prev_point: dict[int, LL1Factors] = field(default_factory=dict)
    counter: dict[int, int] = field(default_factory=dict)

    def estimate(
        self, factors: LL1Factors, t: DenseTensor3, mode: int, batch: FiberBatch
    ) -> np.ndarray:
        c = self.counter.get(mode, 0)
        if c == 0:
            v = full_gradient(factors, t, mode)
        else:
            v = (
                sgd_estimate(factors, t, batch)
                - sgd_estimate(self.prev_point[mode], t, batch)
                + self.v[mode]
            )
        self.v[mode] = v
        self.prev_point[mode] = factors
        self.counter[mode] = (c + 1) % self.q[mode]
        return v

    def clone(self) -> "SarahState":
        return SarahState(
            q=dict(self.q),
            v={m: g.copy() for m, g in self.v.items()},
            prev_point=dict(self.prev_point),
            counter=dict(self.counter),
        )


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

    Persistent estimator state is cloned per draw, so probing never perturbs
    the solver's state.
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
            g = state.clone().estimate(factors, t, mode, bin_id)
        else:
            idx = rng.choice(jn, size=min(batch_size, jn), replace=False)
            batch = FiberBatch(mode, idx)
            if kind == "sarah":
                g = state.clone().estimate(factors, t, mode, batch)
            else:
                g = sgd_estimate(factors, t, batch)
        sq[d] = float(np.sum((g - exact) ** 2))
    mse = float(sq.mean())
    return (mse, sq) if return_draws else mse
