import copy
import tracemalloc

import numpy as np
import pytest
from conftest import reference_unfolding_gradient

from midasll1 import estimators
from midasll1.estimators import (
    SagaState,
    SarahState,
    SgdState,
    batch_gradient,
    estimator_mse_probe,
)
from midasll1.model import (
    H_rows_at,
    LL1Factors,
    RankVector,
    full_gradient,
    gradient_from_rows,
)
from midasll1.solver import SolverConfig, run
from midasll1.tensor import (
    DenseTensor3,
    fiber_coordinates,
    fiber_rows_at,
    row_count,
    unfold,
)


def make_problem(seed=0, dims=(4, 5, 3), L=(2, 2)):
    rng = np.random.default_rng(seed)
    rk = RankVector(L)
    f = LL1Factors(
        rng.random((dims[0], rk.total)),
        rng.random((dims[1], rk.total)),
        rng.random((dims[2], rk.R)),
        rk,
    )
    t = DenseTensor3(rng.random(dims))
    return f, t


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_full_batch_sgd_is_exact_gradient(mode):
    """A batch of every fiber is the H_n formula over the whole unfolding,
    bit for bit; `idx` None is `full_gradient`, bit for bit."""
    f, t = make_problem()
    jn = row_count(t.dims, mode)
    g = batch_gradient(f, t, mode, np.arange(jn))
    np.testing.assert_array_equal(g, reference_unfolding_gradient(f, t, mode))
    np.testing.assert_array_equal(batch_gradient(f, t, mode, None), full_gradient(f, t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_partition_average_is_unbiased(mode):
    """Averaging bin estimates over a partition of fibers gives the exact gradient."""
    f, t = make_problem(seed=1)
    jn = row_count(t.dims, mode)
    b = {1: 5, 2: 4, 3: 5}[mode]  # each divides J = (15, 12, 20)
    bins = np.arange(jn).reshape(-1, b)
    avg = sum(batch_gradient(f, t, mode, idx) for idx in bins) / len(bins)
    exact = full_gradient(f, t, mode)
    assert np.abs(avg - exact).max() <= 1e-10


def test_states_reject_a_batch_below_one():
    """SAGA's warm start and SGD's and SARAH's constructor take any batch
    size B >= 1, whether or not it divides J_n, and no smaller one."""
    f, t = make_problem()  # J_1 = 15, J_2 = 12, J_3 = 20
    for mode, b in ((1, 0), (2, -1), (3, 0)):
        for make in (lambda: SagaState.warm_start(f, t, {mode: b}),
                     lambda: SgdState(t.dims, {mode: b}, f.ranks),
                     lambda: SarahState(t.dims, {mode: b}, f.ranks, q={mode: 2})):
            with pytest.raises(ValueError, match=f"batch size of mode {mode} must be >= 1"):
                make()
    for mode, b in ((1, 4), (2, 5), (3, 3)):
        assert SagaState.warm_start(f, t, {mode: b}).n_bins(mode) == -(-row_count(t.dims, mode) // b)


def bin_sizes(state, mode):
    return np.diff(state.starts[mode]).tolist()


def test_ragged_bins_average_to_the_full_gradient():
    """On a mode whose J_n the batch size does not divide, the ceil(J_n / B)
    bins differ in size by one, larger first, and each bin gradient is divided
    by I_n * J_n / n_bins: the mean of SGD's bin estimates and SAGA's
    warm-start table mean both equal the full gradient (criterion 02's
    identity on ragged bins)."""
    f, t = make_problem(seed=23, dims=(5, 7, 4), L=(2, 1))  # J_3 = 35
    exact = full_gradient(f, t, 3)
    sgd = SgdState(t.dims, {3: 4}, f.ranks)
    sgd.draw([], np.random.default_rng(0))  # cuts the bins
    saga = SagaState.warm_start(f, t, {3: 4})
    for state in (sgd, saga):
        assert bin_sizes(state, 3) == [4] * 8 + [3]
    mean = sum(sgd.estimate(f, t, 3, i) for i in range(9)) / 9
    np.testing.assert_allclose(mean, exact, rtol=0, atol=1e-14 * np.abs(exact).max())
    np.testing.assert_allclose(saga.running_mean[3], exact, rtol=0, atol=1e-14 * np.abs(exact).max())


def saga_for(f, t, mode, b):
    return SagaState.warm_start(f, t, {mode: b})


def test_saga_draw_is_one_integers_draw_per_multi_bin_step():
    f, t = make_problem()  # J_1 = 15, J_2 = 12, J_3 = 20
    st = SagaState.warm_start(f, t, {1: 5, 2: 12, 3: 4})  # 3, 1 and 5 bins
    modes = np.random.default_rng(1).integers(1, 4, size=200).tolist()
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    ids = st.draw(modes, rng)
    assert ids == [int(ref.integers(st.n_bins(n))) if n != 2 else 0 for n in modes]
    assert all(type(i) is int for i in ids)
    assert rng.bit_generator.state == ref.bit_generator.state
    # steps on a single-bin mode take bin 0 without consuming the generator
    assert st.draw([2] * 50, rng) == [0] * 50
    assert rng.bit_generator.state == ref.bit_generator.state
    # a state warm-started on fewer modes draws its own modes' bins alike
    one = SagaState.warm_start(f, t, {3: 4})
    assert one.draw([3] * 20, np.random.default_rng(4)) == st.draw([3] * 20,
                                                                    np.random.default_rng(4))


class CountingRng:
    """A generator that records the name of each method called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append(name)
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def test_sgd_draw_takes_bins_of_one_random_partition():
    """SGD's and SARAH's first draw cuts one `rng.permutation(J_n)` per mode
    with B < J_n, in mode order, into ceil(J_n / B) consecutive bins, which
    cover each fiber once and serve every later draw; each draw's picks are
    one `rng.integers` call over the steps' bin counts.  A full batch
    (B >= J_n) is None, every fiber: it has no partition and leaves the
    generator as it was."""
    f, t = make_problem()  # J_1 = 15, J_2 = 12, J_3 = 20
    rng = CountingRng(np.random.default_rng(3))
    before = rng.rng.bit_generator.state
    full = SgdState(t.dims, {1: 15, 2: 12, 3: 20}, f.ranks)
    assert full.draw([1, 3, 2, 2, 1], rng) == [None] * 5
    assert full.fibers == {} and "permutation" not in rng.calls
    assert rng.rng.bit_generator.state == before

    batches = {3: 4, 2: 12, 1: 4}  # mode 2 takes every fiber; the dict's order is free
    modes = np.random.default_rng(1).integers(1, 4, size=60).tolist()
    for st in (SgdState(t.dims, batches, f.ranks), SarahState(t.dims, batches, f.ranks, q={1: 2, 2: 2, 3: 2})):
        rng, ref = CountingRng(np.random.default_rng(2)), np.random.default_rng(2)
        perms = {n: ref.permutation(row_count(t.dims, n)) for n in (1, 3)}
        for epoch in range(3):
            picks = st.draw(modes, rng)
            assert rng.calls == ["permutation"] * 2 * (epoch == 0) + ["integers"]
            rng.calls.clear()
            ids = iter(ref.integers([st.n_bins(n) for n in modes if n != 2]).tolist())
            assert picks == [None if n == 2 else next(ids) for n in modes]
            assert all(type(p) is int for p in picks if p is not None)
            assert rng.rng.bit_generator.state == ref.bit_generator.state
            assert sorted(st.fibers) == [1, 3]
            for n in (1, 3):
                a, b = st.fibers[n]
                want_a, want_b = fiber_coordinates(t.dims, n, perms[n])
                assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()
                assert len(set(zip(a.tolist(), b.tolist()))) == row_count(t.dims, n)
            assert bin_sizes(st, 1) == [4, 4, 4, 3] and bin_sizes(st, 3) == [4] * 5


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_saga_estimate_at_anchor_is_exact(mode):
    """Fresh and stored bin gradients cancel at the warm-start point, so the
    estimate is the table mean, which equals the full gradient."""
    f, t = make_problem(seed=2)  # J = (15, 12, 20): mode 1 takes bins of 4, 4, 4 and 3
    st = saga_for(f, t, mode, 4)
    for bin_id in range(st.n_bins(mode)):
        g = copy.deepcopy(st).estimate(f, t, mode, bin_id)
        assert np.abs(g - full_gradient(f, t, mode)).max() <= 1e-10


def test_saga_single_bin_is_full_gradient_everywhere():
    f, t = make_problem(seed=3)
    mode = 2
    jn = row_count(t.dims, mode)
    st = saga_for(f, t, mode, jn)
    f2, _ = make_problem(seed=4)
    g = st.estimate(f2, t, mode, 0)
    assert np.abs(g - full_gradient(f2, t, mode)).max() <= 1e-10


def test_saga_running_mean_stays_consistent():
    f, t = make_problem(seed=5)
    mode = 1
    st = saga_for(f, t, mode, 3)
    rng = np.random.default_rng(6)
    point = f
    for _ in range(50):
        point = point.replaced(
            mode, point.factor(mode) + 0.01 * rng.standard_normal(point.factor(mode).shape)
        )
        st.estimate(point, t, mode, int(rng.integers(st.n_bins(mode))))
        assert st.mean_drift(mode) <= 1e-10


def test_saga_expectation_over_bins_is_exact_gradient():
    """E over uniform bin choice of (fresh - stored + mean) equals the full
    gradient at the evaluation point, regardless of table contents."""
    f, t = make_problem(seed=7)
    mode = 3
    st = saga_for(f, t, mode, 6)  # J_3 = 20: bins of 5 fibers
    f2, _ = make_problem(seed=8)
    ests = [copy.deepcopy(st).estimate(f2, t, mode, b) for b in range(st.n_bins(mode))]
    avg = sum(ests) / len(ests)
    assert np.abs(avg - full_gradient(f2, t, mode)).max() <= 1e-10


def test_sarah_restart_is_full_gradient():
    f, t = make_problem(seed=9)
    mode = 1
    st = SarahState(t.dims, {mode: 5}, f.ranks, q={mode: 3})
    g = st.estimate(f, t, mode, 0)  # a restart reads no bin, so none is drawn yet
    np.testing.assert_array_equal(g, full_gradient(f, t, mode))
    assert st.counter[mode] == 1


def test_sarah_recursion_telescopes_with_full_batches():
    """With a bin of every fiber the recursive correction keeps v equal to
    the exact gradient at every step, not just at restarts; a full batch
    (pick None) takes that gradient itself, bit for bit."""
    f, t = make_problem(seed=10)
    mode = 2
    jn = row_count(t.dims, mode)
    st = SarahState(t.dims, {mode: jn}, f.ranks, q={mode: 10})
    one_bin = copy.deepcopy(st)
    one_bin.fibers = {mode: fiber_coordinates(t.dims, mode, np.arange(jn))}
    point = f
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = one_bin.estimate(point, t, mode, 0)
        assert np.abs(v - full_gradient(point, t, mode)).max() <= 1e-12
        assert st.estimate(point, t, mode, None).tobytes() == full_gradient(point, t, mode).tobytes()
        point = point.replaced(
            mode, point.factor(mode) + 0.1 * rng.standard_normal(point.factor(mode).shape)
        )


def test_sarah_counter_wraps_to_restart():
    f, t = make_problem(seed=12)
    mode = 3
    st = SarahState(t.dims, {mode: 4}, f.ranks, q={mode: 2})
    (pick,) = st.draw([mode], np.random.default_rng(0))
    st.estimate(f, t, mode, pick)
    st.estimate(f, t, mode, pick)
    assert st.counter[mode] == 0  # next call restarts
    f2, _ = make_problem(seed=13)
    g = st.estimate(f2, t, mode, pick)
    np.testing.assert_array_equal(g, full_gradient(f2, t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_sarah_step_gathers_its_rows_once(mode, monkeypatch):
    """A SARAH restart gathers nothing (it takes the full gradient); a step
    between restarts gathers its bin's rows once for both points.  A full
    batch (pick None) gathers nothing either: its direction is the full
    gradient at every step."""
    f, t = make_problem(seed=22)  # J_1 = 15, J_2 = 12, J_3 = 20
    b_n = {1: 3, 2: 3, 3: 4}[mode]
    gathered = []

    def counting(t, mode, a, b):
        gathered.append(a.size)
        return fiber_rows_at(t, mode, a, b)

    monkeypatch.setattr(estimators, "fiber_rows_at", counting)
    point = f.replaced(mode, 0.5 * f.factor(mode))
    st = SarahState(t.dims, {mode: b_n}, f.ranks, q={mode: 3})
    (pick,) = st.draw([mode], np.random.default_rng(5))
    st.estimate(f, t, mode, pick)
    assert gathered == []
    v = st.estimate(point, t, mode, pick)
    assert gathered == [b_n]
    lo, hi = st.starts[mode][pick:pick + 2]
    a, b = (c[lo:hi] for c in st.fibers[mode])
    x = fiber_rows_at(t, mode, a, b)
    divisor = t.dims[mode - 1] * b_n  # b_n divides J_n
    want = (gradient_from_rows(point.factor(mode), H_rows_at(point, point.ranks, mode, a, b), x, divisor)
            - gradient_from_rows(f.factor(mode), H_rows_at(f, f.ranks, mode, a, b), x, divisor)
            + full_gradient(f, t, mode))
    assert v.tobytes() == want.tobytes()
    full = SarahState(t.dims, {mode: row_count(t.dims, mode)}, f.ranks, q={mode: 3})
    assert full.draw([mode], np.random.default_rng(5)) == [None]
    full.estimate(f, t, mode, None)
    v = full.estimate(point, t, mode, None)
    assert gathered == [b_n]
    assert v.tobytes() == full_gradient(point, t, mode).tobytes()


def test_probe_zero_mse_for_full_batch_sgd():
    f, t = make_problem(seed=14)
    mode = 1
    jn = row_count(t.dims, mode)
    mse = estimator_mse_probe(SgdState(t.dims, {mode: jn}, f.ranks), f, t, mode, 5, np.random.default_rng(0))
    # a full batch draws nothing and takes the full gradient itself
    assert mse == 0.0


def test_probe_does_not_mutate_state():
    f, t = make_problem(seed=15)
    mode = 2
    st = SagaState.warm_start(f, t, {mode: 4})
    before = copy.deepcopy(st)
    estimator_mse_probe(st, f, t, mode, 20, np.random.default_rng(1))
    for b in range(st.n_bins(mode)):
        np.testing.assert_array_equal(st.table[mode][b], before.table[mode][b])
    np.testing.assert_array_equal(st.running_mean[mode], before.running_mean[mode])

    # SARAH a few steps past a restart, so that v, prev_point and counter are
    # filled; five draws would move the counter from 3 to 0 (q = 4)
    sarah = SarahState(t.dims, {mode: 4}, f.ranks, q={mode: 4})
    rng = np.random.default_rng(2)
    point = f
    for pick in sarah.draw([mode] * 3, rng):
        sarah.estimate(point, t, mode, pick)
        a = point.factor(mode)
        point = point.replaced(mode, a + 0.01 * rng.standard_normal(a.shape))
    before = copy.deepcopy(sarah)
    estimator_mse_probe(sarah, point, t, mode, 5, np.random.default_rng(3))
    assert sarah.counter == before.counter == {mode: 3}
    np.testing.assert_array_equal(sarah.v[mode], before.v[mode])
    prev, before_prev = sarah.prev_point[mode], before.prev_point[mode]
    for n in (1, 2, 3):
        np.testing.assert_array_equal(prev.factor(n), before_prev.factor(n))


@pytest.mark.parametrize("kind", ["sgd", "sarah", "saga"])
def test_probe_copies_share_the_bins(kind):
    """The state each draw estimates on is a copy that shares the probed
    state's `fibers`, `starts` and (SAGA's) `spans`, the bins' coordinates,
    bounds and in-place reads, and its `ranks`, which no estimate writes."""
    f, t = make_problem(seed=18)  # J = (15, 12, 20): mode 1's bins are ragged
    mode, batches = 1, {n: 4 for n in (1, 2, 3)}
    state = {"sgd": lambda: SgdState(t.dims, batches, f.ranks),
             "sarah": lambda: SarahState(t.dims, batches, f.ranks, q={n: 3 for n in batches}),
             "saga": lambda: SagaState.warm_start(f, t, batches)}[kind]()
    state.draw([], np.random.default_rng(5))  # cuts SGD's and SARAH's bins
    copies = []
    estimate = type(state).estimate

    def recording(self, *args):
        copies.append(self)
        return estimate(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(state), "estimate", recording)
        estimator_mse_probe(state, f, t, mode, 3, np.random.default_rng(4))
    assert len(copies) == 3
    assert all(c is not state and c.fibers is state.fibers for c in copies)
    assert all(c.starts is state.starts and c.ranks is state.ranks for c in copies)
    if kind == "saga":
        assert all(c.spans is state.spans for c in copies)


@pytest.mark.parametrize("kind", ["sgd", "sarah"])
def test_probe_leaves_a_fresh_state_uncut(kind):
    """Probing a state whose bins are not cut yet leaves it uncut, so its
    first `draw` in a run cuts the bins an unprobed twin would."""
    f, t = make_problem(seed=19, dims=(6, 5, 4))
    batches = {1: 4, 2: 4, 3: 5}
    make = {"sgd": lambda: SgdState(t.dims, batches, f.ranks),
            "sarah": lambda: SarahState(t.dims, batches, f.ranks, q={n: 3 for n in batches})}[kind]
    probed, twin = make(), make()
    assert probed.fibers is None
    estimator_mse_probe(probed, f, t, 1, 3, np.random.default_rng(6))
    assert probed.fibers is None
    modes = [1, 2, 3, 3]
    picks = probed.draw(modes, np.random.default_rng(8))
    assert picks == twin.draw(modes, np.random.default_rng(8))
    for n in (1, 2, 3):
        for a, b in zip(probed.fibers[n], twin.fibers[n]):
            np.testing.assert_array_equal(a, b)


def held_arrays(obj, seen=None):
    """Every numpy array reachable from `obj` through containers and
    instance attributes (array bases included)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        items = [] if obj.base is None else [obj.base]
    elif isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    else:
        items = [vars(obj)] if hasattr(obj, "__dict__") else []
    for item in items:
        yield from held_arrays(item, seen)


def test_sarah_state_copy_holds_no_tensor():
    """After a restart (a full gradient) SARAH's stored point keeps only what
    its factors determine, so the deepcopy of the state that
    `estimator_mse_probe` makes per draw copies no array as large as the
    tensor."""
    f, t = make_problem(seed=16, dims=(20, 20, 10), L=(2, 2))
    for mode in (1, 3):
        sarah = SarahState(t.dims, {mode: 4}, f.ranks, q={mode: 4})
        sarah.estimate(f, t, mode, None)
        assert sarah.counter == {mode: 1}
        twin = copy.deepcopy(sarah)
        assert max(a.nbytes for a in held_arrays(twin)) < t.array.nbytes


def test_probe_returns_draws():
    f, t = make_problem(seed=16)
    mse, draws = estimator_mse_probe(
        SgdState(t.dims, {1: 3}, f.ranks), f, t, 1, 30, np.random.default_rng(2), return_draws=True
    )
    assert draws.shape == (30,)
    assert mse == pytest.approx(draws.mean())
    assert (draws >= 0).all()


def test_probe_rejects_bad_args():
    f, t = make_problem(seed=17)
    with pytest.raises(ValueError):
        estimator_mse_probe(SgdState(t.dims, {1: 3}, f.ranks), f, t, 1, 0, np.random.default_rng(0))


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_warm_start_table_is_the_per_bin_gradients(mode, chunk_bytes, monkeypatch):
    """The batched warm start fills every table entry with the bits of the
    bin's gradient from its gathered rows, for one fiber per bin, a middle
    bin size that divides J_n (`batch_gradient`'s bits), a ragged one (bins
    of two sizes, so two stacked runs) and a single bin, and chunks of one
    bin, of a few bins and of the default bound."""
    if chunk_bytes is not None:
        monkeypatch.setattr(estimators, "_WARM_CHUNK_BYTES", chunk_bytes)
    f, t = make_problem(seed=7, dims=(6, 5, 4), L=(3, 1, 2))
    jn = row_count(t.dims, mode)  # J = (20, 24, 30)
    divides, ragged = {1: (5, 7), 2: (8, 5), 3: (10, 4)}[mode]
    for b in (1, divides, ragged, jn):
        st = SagaState.warm_start(f, t, {mode: b})
        bins = np.array_split(np.arange(jn), -(-jn // b))
        assert len({len(idx) for idx in bins}) == 1 + (b == ragged)
        for i, idx in enumerate(bins):
            a_i, b_i = fiber_coordinates(t.dims, mode, idx)
            g = gradient_from_rows(f.factor(mode), H_rows_at(f, f.ranks, mode, a_i, b_i),
                                   fiber_rows_at(t, mode, a_i, b_i), t.size / len(bins))
            assert st.table[mode][i].tobytes() == g.tobytes()
            if b != ragged:
                assert g.tobytes() == batch_gradient(f, t, mode, idx).tobytes()
        grads = st.table[mode]
        in_bin_order = sum(grads[1:], start=grads[0].copy()) / len(grads)
        assert st.running_mean[mode].tobytes() == in_bin_order.tobytes()


@pytest.mark.parametrize("B", [1, 8, 5])
@pytest.mark.parametrize("L", [(9, 3, 1), (12, 3)])
def test_mode3_saga_estimate_at_the_warm_start_point_is_the_mean(L, B):
    """At the point its table was warm-started at, a mode-3 SAGA estimate
    on each bin returns the running mean bit for bit: the fresh gradient,
    from one batch's H rows, has the bits of the table entry, from a
    stack's, so the two cancel exactly.  B = 5 cuts J_3 = 24 into bins of
    5, 5, 5, 5 and 4 fibers, two stacked runs."""
    f, t = make_problem(seed=21, dims=(6, 4, 5), L=L)
    state = SagaState.warm_start(f, t, {3: B})
    mean = state.running_mean[3].copy()
    for bin_id in range(state.n_bins(3)):
        assert state.estimate(f, t, 3, bin_id).tobytes() == mean.tobytes()
    assert state.running_mean[3].tobytes() == mean.tobytes()


def test_warm_start_keeps_its_chunk_bound():
    """Beyond the table, means and fiber coordinates it keeps, the warm start
    at 100x100x50, ranks 4,4,4, B = 8 allocates at most `_WARM_CHUNK_BYTES`
    at a time."""
    f, t = make_problem(seed=14, dims=(100, 100, 50), L=(4, 4, 4))
    tracemalloc.start()
    try:
        SagaState.warm_start(f, t, {1: 8, 2: 8, 3: 8})  # warms numpy's first-call caches
        tracemalloc.reset_peak()
        state = SagaState.warm_start(f, t, {1: 8, 2: 8, 3: 8})
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.n_bins(3) == 10000 // 8
    assert peak - kept <= estimators._WARM_CHUNK_BYTES


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_gradient_from_rows_ignores_the_row_layout(mode):
    """C- and F-ordered rows give the same bits, for one batch and for a
    stack of batches, and with the gradient written into `out`."""
    f, t = make_problem(seed=15, dims=(6, 5, 4), L=(3, 1, 2))
    jn = row_count(t.dims, mode)
    a, b = fiber_coordinates(t.dims, mode, np.arange(jn).reshape(-1, 2))
    h = H_rows_at(f, f.ranks, mode, a, b)
    x = np.ascontiguousarray(fiber_rows_at(t, mode, a.ravel(), b.ravel()).reshape(*a.shape, -1))
    a_n = f.factor(mode)
    divisor = t.dims[mode - 1] * 2
    for hs, xs in ((h[0], x[0]), (h, x)):
        want = gradient_from_rows(a_n, hs, xs, divisor).tobytes()
        fortran = np.asfortranarray(xs)
        assert not fortran.flags.c_contiguous
        assert gradient_from_rows(a_n, hs, fortran, divisor).tobytes() == want
        out = np.empty((*xs.shape[:-2], *a_n.shape))
        assert gradient_from_rows(a_n, hs, fortran, divisor, out=out) is out
        assert out.tobytes() == want


def test_table_mean_keeps_signed_zeros():
    """`_table_mean` is the bin-order sum over the bins divided by their
    count, bit for bit: an entry that is -0.0 in every bin stays -0.0."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 40):
        grads = rng.standard_normal((n, 5, 3))
        grads[rng.random(grads.shape) < 0.4] = 0.0
        grads[rng.random(grads.shape) < 0.4] = -0.0
        grads[:, 0, 0] = -0.0
        grads[:, 1, 1] = 0.0
        mean = estimators._table_mean(grads)
        in_bin_order = sum(grads[1:], start=grads[0].copy()) / n
        assert mean.tobytes() == in_bin_order.tobytes()
        assert np.signbit(mean[0, 0]) and not np.signbit(mean[1, 1])


# each B divides J_n of (5, 7, 4) and its bins straddle a slab boundary:
# mode-1 bins of 4 cross i3 (I2 = 7), mode-2 bins of 4 and mode-3 bins of 7
# cross the next slow index (I1 = 5)
STRADDLING_BATCHES = {1: 4, 2: 4, 3: 7}


def _record_rows(monkeypatch):
    """The rows `x` of every `gradient_from_rows` call made by the
    estimators (the solver loop's batch gradients among them), in call order."""
    seen = []

    def recording(a, h, x, divisor, out=None):
        seen.append(x)
        return gradient_from_rows(a, h, x, divisor, out=out)

    monkeypatch.setattr(estimators, "gradient_from_rows", recording)
    return seen


@pytest.mark.parametrize("chunk_bytes", [1024, None])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_saga_rows_are_fiber_rows_at(mode, chunk_bytes, monkeypatch):
    """The rows SAGA reads without gathering (mode-1 views, mode-3 slices of
    the column-major view), per warm-start chunk and per bin, have the bits
    of `fiber_rows_at`, also where a bin straddles a slab boundary.  Their
    layout is free: `gradient_from_rows` only subtracts them."""
    if chunk_bytes is not None:
        monkeypatch.setattr(estimators, "_WARM_CHUNK_BYTES", chunk_bytes)
    f, t = make_problem(seed=12, dims=(5, 7, 4), L=(2, 1))
    jn = row_count(t.dims, mode)
    seen = _record_rows(monkeypatch)
    st = SagaState.warm_start(f, t, {mode: STRADDLING_BATCHES[mode]})
    assert (len(seen) > 1) == (chunk_bytes is not None)
    everything = fiber_rows_at(t, mode, *fiber_coordinates(t.dims, mode, np.arange(jn)))
    in_chunks = np.concatenate([x.reshape(-1, t.dims[mode - 1]) for x in seen])
    assert in_chunks.tobytes() == everything.tobytes()
    seen.clear()
    for bin_id in range(st.n_bins(mode)):
        st.estimate(f, t, mode, bin_id)
        lo, hi = st.starts[mode][bin_id:bin_id + 2]
        a, b = (c[lo:hi] for c in st.fibers[mode])
        x = seen[-1]
        assert x.shape == (a.size, t.dims[mode - 1])
        assert x.tobytes() == fiber_rows_at(t, mode, a, b).tobytes()


@pytest.mark.parametrize("estimator", ["sgd", "sarah"])
def test_sampled_rows_are_rows_of_the_unfolding(estimator, monkeypatch):
    """Each row SGD and SARAH gather in `run` is a row of the unfolding, bit
    for bit, in bins of at most B = 4 fibers: ceil(J_n / 4) bins of J =
    (28, 20, 35), so 4, 4, and 4 or 3 on mode 3 (the modes of (5, 7, 4)
    differ in I_n, so a batch's width names its mode)."""
    f, t = make_problem(seed=13, dims=(5, 7, 4), L=(2, 1))
    seen = _record_rows(monkeypatch)
    run(SolverConfig(ranks=f.ranks, estimator=estimator, epochs=2, B=4, seed=1), t)
    rows = {t.dims[m - 1]: {r.tobytes() for r in unfold(t, m)} for m in (1, 2, 3)}
    assert len({x.shape[1] for x in seen}) == 3
    for x in seen:
        assert x.shape[0] in {5: (4,), 7: (4,), 4: (4, 3)}[x.shape[1]]
        assert all(r.tobytes() in rows[x.shape[1]] for r in x)


@pytest.mark.parametrize("dims, B", [((100, 100, 50), 8), ((97, 89, 53), 8), ((5, 7, 4), 4)])
def test_saga_bin_reads_are_the_gathers(dims, B):
    """What a SAGA step reads of each bin, `SagaState.bin_rows`, is the
    unfolding rows of `fiber_rows_at` and the H rows of `H_rows_at` bit for
    bit, for every bin of every mode: the views and slices of a bin within
    one slow index and the gathers of a bin that crosses one, both of which
    each mode of these shapes has (2,400 of the 2,500 bins lie within one at
    (100, 100, 50), 2,144 of 2,313 at (97, 89, 53))."""
    rng = np.random.default_rng(sum(dims))
    rk = RankVector((2, 1, 3))
    f = LL1Factors(rng.standard_normal((dims[0], rk.total)),
                   rng.standard_normal((dims[1], rk.total)),
                   rng.standard_normal((dims[2], rk.R)), rk)
    t = DenseTensor3(rng.standard_normal(dims))
    state = SagaState.warm_start(f, t, dict.fromkeys((1, 2, 3), B))
    point = [f.A1.copy(), f.A2.copy(), f.A3.copy()]  # bare arrays, as the solver passes
    within = total = 0
    for mode in (1, 2, 3):
        kinds = set()
        for bin_id in range(state.n_bins(mode)):
            a, b, _, _ = state._bin(mode, bin_id)
            x, h = state.bin_rows(point, t, mode, bin_id)
            assert x.tobytes() == fiber_rows_at(t, mode, a, b).tobytes()
            assert h.tobytes() == H_rows_at(f, rk, mode, a, b).tobytes()
            kinds.add(state.spans[mode][0][bin_id] >= 0)
        assert kinds == {True, False}
        within += sum(s >= 0 for s in state.spans[mode][0])
        total += state.n_bins(mode)
    if B == 8:
        assert (within, total) == {100: (2400, 2500), 97: (2144, 2313)}[dims[0]]
