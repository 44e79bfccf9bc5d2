"""Stochastic gradient estimators over fiber bins: vanilla SGD, SAGA, SARAH.

The three share one protocol and one bin rule: each mode's J_n fibers are
cut once per run into n_bins = ceil(J_n / B) bins of at most B fibers, sizes
differing by at most one, larger first (SGD and SARAH cut one permutation at
their first `draw`, SAGA the fibers in order).  A bin's gradient sum is
divided by I_n * J_n / n_bins (I_n * B where B divides J_n), so a uniformly
drawn bin is unbiased for any sizes.
`draw(modes, rng)` gives the pick of each step of an epoch's modes, in step
order: a bin, or for SGD and SARAH None (every fiber) on a mode of one bin.
`estimate(point, t, mode, pick, scale=1.0, out=None)` is `scale` times the
gradient estimate on that pick at `point`, written into `out` (which may be
an array of `point`: it is written last) when given; `point` is a sequence
of the three factor arrays (A1, A2, A3) of the state's `ranks` (an
`LL1Factors` is one, and None takes one).  It is a deterministic function
of its arguments and the state: all the randomness is in `draw`, which
reads only the caller's generator.  An estimate keeps no array of a
`point` of bare arrays, which the solver overwrites in place.

A variance-reduced estimator in the sense used here keeps a mean squared
error bound that contracts as the iterates converge; SAGA achieves this with
a stored per-bin gradient table plus running average, SARAH with a recursive
difference direction refreshed by periodic full-gradient restarts.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .model import H_rows_at, LL1Factors, RankVector, full_gradient, gradient_from_rows
from .tensor import DenseTensor3, fiber_coordinates, fiber_rows_at, row_count

ESTIMATOR_KINDS = ("sgd", "saga", "sarah")

# the warm start fills the SAGA table in chunks of bins whose rows, H rows
# and residuals take at most this many bytes (at least one bin), and beyond
# them the H rows of the rest of the first and last slow index the chunk
# spans, which it forms whole; the gradients go straight into the table
_WARM_CHUNK_BYTES = 1 << 20


def batch_gradient(
    factors: LL1Factors, t: DenseTensor3, mode: int, idx: np.ndarray | None
) -> np.ndarray:
    """Fiber-sampled stochastic gradient of f with respect to A_mode at `factors`.

    g = ((H_n(F) A_n^T - X_n(F))^T H_n(F)) / (I_n * B) over the B
    distinct, in-range fiber indices `idx` (not checked), with H_n(F) built
    row-wise for the sampled fibers only.  `idx` None takes every fiber, by
    `full_gradient`; a batch of all J_n fibers gives the same gradient up to
    rounding, since `full_gradient` contracts the tensor in another order."""
    if idx is None:
        return full_gradient(factors, t, mode)
    a, b = fiber_coordinates(t.dims, mode, idx)
    x = fiber_rows_at(t, mode, a, b)
    return _rows_gradient(factors, factors.ranks, mode, a, b, x, t.dims[mode - 1] * a.size)


def _rows_gradient(point, ranks: RankVector, mode: int, a, b, x: np.ndarray, divisor) -> np.ndarray:
    """`gradient_from_rows` at `point` on the fibers at `(a, b)`, whose rows are `x`."""
    return gradient_from_rows(point[mode - 1], H_rows_at(point, ranks, mode, a, b), x, divisor)


@dataclass
class SgdState:
    """Vanilla SGD on the bins of B = `batches[mode]` >= 1 for a model of
    block widths `ranks`, no gradient state.  `starts[mode]` holds each
    bin's first fiber position, then J_n; `divisors[mode]` is
    I_n * J_n / n_bins; `fibers[mode]` holds the fibers' 1-D coordinates in
    bin order, cut by `draw` (none on a mode of one bin)."""

    dims: tuple[int, int, int]
    batches: dict[int, int]
    ranks: RankVector
    fibers: dict[int, tuple[np.ndarray, np.ndarray]] | None = field(default=None, init=False)
    starts: dict[int, list[int]] = field(default_factory=dict, init=False)
    divisors: dict[int, float] = field(default_factory=dict, init=False)

    def __post_init__(self):
        for mode, size in self.batches.items():
            if size < 1:
                raise ValueError(f"batch size of mode {mode} must be >= 1, got {size}")
            jn = row_count(self.dims, mode)
            n_bins = -(-jn // size)
            q, r = divmod(jn, n_bins)
            self.starts[mode] = [*range(0, r * (q + 1), q + 1), *range(r * (q + 1), jn + 1, q)]
            self.divisors[mode] = jn * self.dims[mode - 1] / n_bins

    def n_bins(self, mode: int) -> int:
        return len(self.starts[mode]) - 1

    def draw(self, modes: list[int], rng: np.random.Generator) -> list[int | None]:
        """A bin for each step of `modes`: None on a mode without bins, 0 on a
        mode of one bin, and one `rng.integers(n_bins)` draw for each other
        step, all made in one call.  An SGD or SARAH state's first call first
        cuts its bins, from one `rng.permutation(J_n)` per mode in order."""
        if self.fibers is None:
            self.fibers = {n: fiber_coordinates(self.dims, n, rng.permutation(starts[-1]))
                           for n, starts in sorted(self.starts.items()) if len(starts) > 2}
        if not self.fibers:  # every batch is full, as in PALM: nothing to draw
            return [None] * len(modes)
        counts = np.array([0] + [self.n_bins(m) if m in self.fibers else 0 for m in (1, 2, 3)])[modes]
        picks = np.where(counts > 0, 0, None)
        many = counts > 1
        picks[many] = rng.integers(counts[many])  # an empty draw leaves `rng` as it was
        return picks.tolist()

    def _bin(self, mode: int, pick: int):
        """Bin `pick`'s fiber coordinates, first fiber position and divisor."""
        a, b = self.fibers[mode]
        starts = self.starts[mode]
        lo, hi = starts[pick], starts[pick + 1]
        return a[lo:hi], b[lo:hi], lo, self.divisors[mode]

    def estimate(self, point, t: DenseTensor3, mode: int, pick: int | None,
                 scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
        """`scale` times the batch gradient on bin `pick` at `point`; for
        None, times `full_gradient` at the `LL1Factors` `point` itself."""
        if pick is None:
            g = full_gradient(point, t, mode)
        else:
            a, b, _, divisor = self._bin(mode, pick)
            g = _rows_gradient(point, self.ranks, mode, a, b, fiber_rows_at(t, mode, a, b), divisor)
        return np.multiply(g, scale, out=out)


@dataclass
class SarahState(SgdState):
    """Recursive difference direction per mode with periodic full restarts,
    on SGD's bins.

    At a restart (counter == 0) and on a mode without bins (pick None) the
    direction is the exact full gradient at the current evaluation point,
    and the step's bin goes unread; otherwise it is corrected by the bin
    gradient difference between the current and the previously seen point,
    both evaluated on one gather of the bin's rows.  `prev_point[mode]` is
    the last point: of copies of its arrays (`LL1Factors.of`) after a bin,
    the caller's `LL1Factors` after None.
    """

    q: dict[int, int]  # steps between restarts; 0 -> n_bins, an epoch's worth
    v: dict[int, np.ndarray] = field(default_factory=dict)
    prev_point: dict[int, LL1Factors] = field(default_factory=dict)
    counter: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        self.q = {n: q or self.n_bins(n) for n, q in self.q.items()}

    def estimate(self, point, t: DenseTensor3, mode: int, pick: int | None,
                 scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
        """`scale` times the direction at `point` for bin `pick`, which
        `v[mode]` keeps.  `prev_point[mode]`
        becomes a copy of `point`, at which a restart's full gradient is
        taken: the tensor keeps its contractions with the arrays they read.
        For None it becomes the `LL1Factors` `point` itself, uncopied."""
        count = self.counter.get(mode, 0)
        kept = point if pick is None else LL1Factors.of(point, self.ranks)
        if count == 0 or pick is None:
            v = full_gradient(kept, t, mode)
        else:
            a, b, _, divisor = self._bin(mode, pick)
            x = fiber_rows_at(t, mode, a, b)
            v = (_rows_gradient(point, self.ranks, mode, a, b, x, divisor)
                 - _rows_gradient(self.prev_point[mode], self.ranks, mode, a, b, x, divisor)
                 + self.v[mode])
        self.v[mode] = v
        self.prev_point[mode] = kept
        self.counter[mode] = (count + 1) % self.q[mode]
        return np.multiply(v, scale, out=out)


@dataclass
class SagaState(SgdState):
    """Per-mode table of undivided bin gradients plus their running mean.

    `table[mode]` stacks the residual products r^T h (n_bins x I_n x L,
    `gradient_from_rows` with divisor None) of bins of consecutive fibers,
    whose coordinates the warm start puts in `fibers`; `running_mean[mode]`
    is their mean.  No row is divided: an estimate is (fresh - stored +
    running_mean) * (scale / divisor), so at the warm-start point, where
    fresh and stored rows cancel, it is running_mean * (scale / divisor)
    exactly.  The mean is updated incrementally and recomputed from the
    table once per full sweep to keep its drift (`mean_drift`, in gradient
    units) below the documented 1e-10 consistency bound.

    The warm start fills the table a chunk of bins of one size at a time
    (at most two stacked runs): one `_bin_rows`; the H rows of every fiber
    of the slow indices the chunk spans, each slow factor row repeated over
    the fast rows and multiplied by them (`H_rows_at`'s products, with no
    gather), then for mode 3 one block-summing product per bin; and one
    stacked `gradient_from_rows` in place (two BLAS calls per bin), so each
    entry has its bin's bits.  The running mean is summed a chunk at a time
    in bin order while the chunk is in cache, with `_table_mean`'s bits.
    `spans[mode]` holds three lists: each bin's slow index (-1 for a bin that
    crosses one) and its first and end fast index (see `bin_rows`).
    """

    table: dict[int, np.ndarray] = field(default_factory=dict)
    running_mean: dict[int, np.ndarray] = field(default_factory=dict)
    updates_since_recompute: dict[int, int] = field(default_factory=dict)
    spans: dict[int, tuple[list[int], list[int], list[int]]] = field(default_factory=dict)

    @classmethod
    def warm_start(
        cls, factors: LL1Factors, t: DenseTensor3, batches: dict[int, int]
    ) -> "SagaState":
        """The table at `factors` for each mode's batch size B >= 1."""
        state = cls(t.dims, batches, factors.ranks,
                    updates_since_recompute={m: 0 for m in batches})
        state.fibers = {}
        # the three tables are views of one array: freed as one block, it
        # raises glibc's dynamic mmap threshold above a whole set-up's heap,
        # so a later warm start reuses that heap instead of faulting pages in
        shapes = {m: (state.n_bins(m), *factors.factor(m).shape) for m in state.starts}
        block = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        a1, a2, a3 = factors
        for mode, starts in state.starts.items():
            n_bins = len(starts) - 1
            state.fibers[mode] = a, b = fiber_coordinates(t.dims, mode, np.arange(starts[-1]))
            i_n, width = factors.factor(mode).shape
            state.table[mode] = grads = block[:math.prod(shapes[mode])].reshape(shapes[mode])
            block = block[grads.size:]
            # fiber j is (j % fast, j // fast): its H row is the product of
            # slow_rows[j // fast] and fast_rows[j % fast], block-summed on mode 3
            slow_rows, fast_rows = ((a2, a1) if mode == 3 else
                                    (a3.take(factors.ranks.column_blocks, axis=-1), a2 if mode == 1 else a1))
            fast = len(fast_rows)
            total = np.full((i_n, width), -0.0)  # the bin-order sum of `_table_mean`
            q, r = divmod(starts[-1], n_bins)
            for first, last, size in ((0, r, q + 1), (r, n_bins, q)):  # the bins of each size
                step = max(1, _WARM_CHUNK_BYTES // (8 * size * (2 * i_n + width)))
                for lo in range(first, last, step):
                    hi = min(lo + step, last)
                    j0, j1 = starts[lo], starts[hi]
                    x = _bin_rows(t, mode, a[j0:j1], b[j0:j1], j0).reshape(hi - lo, size, i_n)
                    # the H rows of every fiber of the slow indices the chunk spans
                    s0 = j0 // fast
                    h = slow_rows[s0:-(-j1 // fast)].repeat(fast, axis=0)
                    spanned = h.reshape(-1, *fast_rows.shape)
                    spanned *= fast_rows
                    h = h[j0 - s0 * fast:j1 - s0 * fast].reshape(hi - lo, size, -1)
                    if mode == 3:  # one product per bin, as for a bin's own H rows
                        h = h @ factors.ranks.block_indicator
                    chunk = gradient_from_rows(factors.factor(mode), h, x, None, out=grads[lo:hi])
                    # sum the chunk while it is in cache: carried into its first
                    # row, the sum takes the bins in the order `_table_mean` does
                    first_row = chunk[0].copy()
                    chunk[0] += total
                    total = np.add.reduce(chunk, axis=0, initial=-0.0)
                    chunk[0] = first_row
            # numpy sums a table of one-entry rows pairwise, not in bin order
            state.running_mean[mode] = total / n_bins if total.size > 1 else _table_mean(grads)
            bounds = np.array(starts)
            slow, lo = np.divmod(bounds[:-1], fast)
            hi = lo + np.diff(bounds)
            state.spans[mode] = np.where(hi <= fast, slow, -1).tolist(), lo.tolist(), hi.tolist()
        return state

    def bin_rows(self, point, t: DenseTensor3, mode: int, bin_id: int):
        """The mode-n unfolding rows and the H_n rows at `point` of bin
        `bin_id`: the values of `fiber_rows_at` and `H_rows_at`, bit for bit.
        A bin within one slow index s (i3 for modes 1 and 2, i2 for mode 3)
        reads the rows as a view of the tensor and the other factors as row
        s and a slice; a bin that crosses one takes `_bin_rows` and
        `H_rows_at`'s gathers."""
        slows, los, his = self.spans[mode]
        s = slows[bin_id]
        if s < 0:
            a, b, start, _ = self._bin(mode, bin_id)
            return _bin_rows(t, mode, a, b, start), H_rows_at(point, self.ranks, mode, a, b)
        lo, hi = los[bin_id], his[bin_id]
        a1, a2, a3 = point
        if mode == 1:
            return t.array[:, lo:hi, s].T, a3[s].take(self.ranks.column_blocks) * a2[lo:hi]
        if mode == 2:
            return t.array[lo:hi, :, s], a3[s].take(self.ranks.column_blocks) * a1[lo:hi]
        return t.array[lo:hi, s], (a2[s] * a1[lo:hi]) @ self.ranks.block_indicator

    def estimate(self, point, t: DenseTensor3, mode: int, bin_id: int,
                 scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
        """(fresh - stored + running_mean) * (scale / divisor), the fresh
        row taken at `point`; then the table and mean are updated."""
        x, h = self.bin_rows(point, t, mode, bin_id)
        fresh = gradient_from_rows(point[mode - 1], h, x, None)
        table = self.table[mode]
        diff = table[bin_id]  # the stored row holds the difference, then fresh
        np.subtract(fresh, diff, out=diff)
        g = np.add(diff, self.running_mean[mode], out=out)
        g *= scale / self.divisors[mode]
        nb = len(table)
        diff *= 1.0 / nb
        self.running_mean[mode] += diff
        diff[...] = fresh
        count = self.updates_since_recompute[mode] + 1
        if count >= nb:
            self.running_mean[mode] = _table_mean(table)
            count = 0
        self.updates_since_recompute[mode] = count
        return g

    def mean_drift(self, mode: int) -> float:
        """Distance between the incremental mean and a recomputation, over the divisor."""
        drift = np.linalg.norm(self.running_mean[mode] - _table_mean(self.table[mode]))
        return float(drift) / self.divisors[mode]


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
    """Mean of the stacked table rows, summed in bin order: a reduction
    over the outer axis adds whole bins in turn, and starting from -0.0
    keeps a sum of signed zeros signed, as the sum of the bins alone is.
    Rows of one entry are the exception: numpy sums that lone column
    pairwise."""
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
    perturbs the solver's state; the ranks and the bins' coordinates, starts
    and SAGA spans, which no estimate writes, are shared with the copy.  The
    draws are made on a shallow copy of `state`, so a state whose bins are
    not cut yet stays uncut.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    exact = full_gradient(factors, t, mode)
    sq = np.empty(n_draws)
    drawn = copy.copy(state)
    for d in range(n_draws):
        (pick,) = drawn.draw([mode], rng)
        shared = {id(v): v for v in (drawn.fibers, drawn.starts, vars(drawn).get("spans"),
                                      drawn.ranks)}
        g = copy.deepcopy(drawn, shared).estimate(factors, t, mode, pick)
        sq[d] = float(np.sum((g - exact) ** 2))
    mse = float(sq.mean())
    return (mse, sq) if return_draws else mse
