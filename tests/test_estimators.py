import copy

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
    largest_divisor_at_most,
)
from midasll1.model import LL1Factors, RankVector, full_gradient, gradient_from_rows
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
    b = largest_divisor_at_most(jn, 5)
    bins = np.arange(jn).reshape(-1, b)
    avg = sum(batch_gradient(f, t, mode, idx) for idx in bins) / len(bins)
    exact = full_gradient(f, t, mode)
    assert np.abs(avg - exact).max() <= 1e-10


def test_warm_start_rejects_nondivisor_batch():
    f, t = make_problem()  # J_1 = 15, J_2 = 12, J_3 = 20
    for mode, b in ((1, 4), (2, 5), (3, 3), (1, 0)):
        with pytest.raises(ValueError, match=f"must divide J_{mode}"):
            SagaState.warm_start(f, t, {mode: b})


def test_largest_divisor_at_most():
    assert largest_divisor_at_most(12, 5) == 4
    assert largest_divisor_at_most(12, 12) == 12
    assert largest_divisor_at_most(12, 100) == 12
    assert largest_divisor_at_most(7, 3) == 1


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


def test_sgd_draw_is_one_choice_per_partial_batch_step():
    """A full batch (B_n = J_n) is None, every fiber, and leaves the generator
    as it was; a partial batch is one `rng.choice(J_n, B_n, replace=False)`
    per step, in step order.  SARAH inherits the draw."""
    f, t = make_problem()  # J_1 = 15, J_2 = 12, J_3 = 20
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert SgdState(t.dims, {1: 15, 2: 12, 3: 20}).draw([1, 3, 2, 2, 1], rng) == [None] * 5
    assert rng.bit_generator.state == before

    batches = {1: 4, 2: 12, 3: 7}  # mode 2 takes every fiber
    modes = np.random.default_rng(1).integers(1, 4, size=60).tolist()
    ref = np.random.default_rng(2)
    want = [None if n == 2 else ref.choice(row_count(t.dims, n), batches[n], replace=False).tolist()
            for n in modes]
    for st in (SgdState(t.dims, batches), SarahState(t.dims, batches, q={1: 2, 2: 2, 3: 2})):
        rng = np.random.default_rng(2)
        picks = st.draw(modes, rng)
        assert [None if p is None else p.tolist() for p in picks] == want
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_saga_estimate_at_anchor_is_exact(mode):
    """Fresh and stored bin gradients cancel at the warm-start point, so the
    estimate is the table mean, which equals the full gradient."""
    f, t = make_problem(seed=2)
    st = saga_for(f, t, mode, largest_divisor_at_most(row_count(t.dims, mode), 4))
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
    st = saga_for(f, t, mode, largest_divisor_at_most(row_count(t.dims, mode), 3))
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
    st = saga_for(f, t, mode, largest_divisor_at_most(row_count(t.dims, mode), 4))
    f2, _ = make_problem(seed=8)
    ests = [copy.deepcopy(st).estimate(f2, t, mode, b) for b in range(st.n_bins(mode))]
    avg = sum(ests) / len(ests)
    assert np.abs(avg - full_gradient(f2, t, mode)).max() <= 1e-10


def test_sarah_restart_is_full_gradient():
    f, t = make_problem(seed=9)
    mode = 1
    st = SarahState(t.dims, {mode: 4}, q={mode: 3})
    g = st.estimate(f, t, mode, np.arange(4))
    np.testing.assert_array_equal(g, full_gradient(f, t, mode))
    assert st.counter[mode] == 1


def test_sarah_recursion_telescopes_with_full_batches():
    """With full-index batches the recursive correction keeps v equal to the
    exact gradient at every step, not just at restarts."""
    f, t = make_problem(seed=10)
    mode = 2
    jn = row_count(t.dims, mode)
    st = SarahState(t.dims, {mode: jn}, q={mode: 10})
    point = f
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = st.estimate(point, t, mode, np.arange(jn))
        assert np.abs(v - full_gradient(point, t, mode)).max() <= 1e-12
        point = point.replaced(
            mode, point.factor(mode) + 0.1 * rng.standard_normal(point.factor(mode).shape)
        )


def test_sarah_counter_wraps_to_restart():
    f, t = make_problem(seed=12)
    mode = 3
    st = SarahState(t.dims, {mode: 3}, q={mode: 2})
    idx = np.arange(3)
    st.estimate(f, t, mode, idx)
    st.estimate(f, t, mode, idx)
    assert st.counter[mode] == 0  # next call restarts
    f2, _ = make_problem(seed=13)
    g = st.estimate(f2, t, mode, idx)
    np.testing.assert_array_equal(g, full_gradient(f2, t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_sarah_step_gathers_its_rows_once(mode, monkeypatch):
    """A SARAH restart gathers nothing (it takes the full gradient); a step
    between restarts gathers its batch's rows once for both points, and with
    every fiber (`idx` None) gathers all of them, with the bits of passing
    `np.arange(J_n)`."""
    f, t = make_problem(seed=22)
    jn = row_count(t.dims, mode)
    gathered = []

    def counting(t, mode, a, b):
        gathered.append(a.size)
        return fiber_rows_at(t, mode, a, b)

    monkeypatch.setattr(estimators, "fiber_rows_at", counting)
    point = f.replaced(mode, 0.5 * f.factor(mode))
    for idx in (np.array([4, 0, 7]), None):
        st = SarahState(t.dims, {mode: 3}, q={mode: 3})
        st.estimate(f, t, mode, idx)
        assert gathered == []
        twin = copy.deepcopy(st)
        v = st.estimate(point, t, mode, idx)
        assert gathered == [3 if idx is not None else jn]
        want = twin.estimate(point, t, mode, np.arange(jn) if idx is None else idx)
        assert v.tobytes() == want.tobytes()
        gathered.clear()


def test_probe_zero_mse_for_full_batch_sgd():
    f, t = make_problem(seed=14)
    mode = 1
    jn = row_count(t.dims, mode)
    mse = estimator_mse_probe(SgdState(t.dims, {mode: jn}), f, t, mode, 5, np.random.default_rng(0))
    # a full batch draws nothing and takes the full gradient itself
    assert mse == 0.0


def test_probe_does_not_mutate_state():
    f, t = make_problem(seed=15)
    mode = 2
    st = SagaState.warm_start(f, t, {mode: largest_divisor_at_most(row_count(t.dims, mode), 4)})
    before = copy.deepcopy(st)
    estimator_mse_probe(st, f, t, mode, 20, np.random.default_rng(1))
    for b in range(st.n_bins(mode)):
        np.testing.assert_array_equal(st.table[mode][b], before.table[mode][b])
    np.testing.assert_array_equal(st.running_mean[mode], before.running_mean[mode])

    # SARAH a few steps past a restart, so that v, prev_point and counter are
    # filled; five draws would move the counter from 3 to 0 (q = 4)
    sarah = SarahState(t.dims, {mode: 4}, q={mode: 4})
    rng = np.random.default_rng(2)
    point = f
    for _ in range(3):
        sarah.estimate(point, t, mode, rng.choice(row_count(t.dims, mode), 4, replace=False))
        a = point.factor(mode)
        point = point.replaced(mode, a + 0.01 * rng.standard_normal(a.shape))
    before = copy.deepcopy(sarah)
    estimator_mse_probe(sarah, point, t, mode, 5, np.random.default_rng(3))
    assert sarah.counter == before.counter == {mode: 3}
    np.testing.assert_array_equal(sarah.v[mode], before.v[mode])
    prev, before_prev = sarah.prev_point[mode], before.prev_point[mode]
    for n in (1, 2, 3):
        np.testing.assert_array_equal(prev.factor(n), before_prev.factor(n))


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
        sarah = SarahState(t.dims, {mode: 4}, q={mode: 4})
        sarah.estimate(f, t, mode, None)
        assert sarah.counter == {mode: 1}
        twin = copy.deepcopy(sarah)
        assert max(a.nbytes for a in held_arrays(twin)) < t.array.nbytes


def test_probe_returns_draws():
    f, t = make_problem(seed=16)
    mse, draws = estimator_mse_probe(
        SgdState(t.dims, {1: 2}), f, t, 1, 30, np.random.default_rng(2), return_draws=True
    )
    assert draws.shape == (30,)
    assert mse == pytest.approx(draws.mean())
    assert (draws >= 0).all()


def test_probe_rejects_bad_args():
    f, t = make_problem(seed=17)
    with pytest.raises(ValueError):
        estimator_mse_probe(SgdState(t.dims, {1: 2}), f, t, 1, 0, np.random.default_rng(0))


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_warm_start_table_is_the_per_bin_gradients(mode, chunk_bytes, monkeypatch):
    """The batched warm start fills every table entry with the bits of
    `batch_gradient` on that bin's gathered rows, for one fiber per bin, a
    middle bin size and a single bin, and chunks of one bin, of a few bins
    and of the default bound."""
    if chunk_bytes is not None:
        monkeypatch.setattr(estimators, "_WARM_CHUNK_BYTES", chunk_bytes)
    f, t = make_problem(seed=7, dims=(6, 5, 4), L=(3, 1, 2))
    jn = row_count(t.dims, mode)
    for b in (1, largest_divisor_at_most(jn, jn // 3), jn):
        st = SagaState.warm_start(f, t, {mode: b})
        for i, idx in enumerate(np.arange(jn).reshape(-1, b)):
            g = batch_gradient(f, t, mode, idx)
            assert st.table[mode][i].tobytes() == g.tobytes()
        grads = st.table[mode]
        in_bin_order = sum(grads[1:], start=grads[0].copy()) / len(grads)
        assert st.running_mean[mode].tobytes() == in_bin_order.tobytes()


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

    def recording(a, h, x):
        seen.append(x)
        return gradient_from_rows(a, h, x)

    monkeypatch.setattr(estimators, "gradient_from_rows", recording)
    return seen


@pytest.mark.parametrize("chunk_bytes", [1024, None])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_saga_rows_are_fiber_rows_at(mode, chunk_bytes, monkeypatch):
    """The rows SAGA reads without gathering (mode-1 views, mode-3 slices of
    the column-major view), per warm-start chunk and per bin, have the bits
    and the C-contiguous layout of `fiber_rows_at`, so BLAS rounds them
    alike, also where a bin straddles a slab boundary."""
    if chunk_bytes is not None:
        monkeypatch.setattr(estimators, "_WARM_CHUNK_BYTES", chunk_bytes)
    f, t = make_problem(seed=12, dims=(5, 7, 4), L=(2, 1))
    jn = row_count(t.dims, mode)
    seen = _record_rows(monkeypatch)
    st = SagaState.warm_start(f, t, {mode: STRADDLING_BATCHES[mode]})
    assert (len(seen) > 1) == (chunk_bytes is not None)
    everything = fiber_rows_at(t, mode, *fiber_coordinates(t.dims, mode, np.arange(jn)))
    assert everything.flags.c_contiguous
    assert all(x.flags.c_contiguous for x in seen)
    in_chunks = np.concatenate([x.reshape(-1, t.dims[mode - 1]) for x in seen])
    assert in_chunks.tobytes() == everything.tobytes()
    seen.clear()
    for bin_id in range(st.n_bins(mode)):
        st.estimate(f, t, mode, bin_id)
        a, b = (c[bin_id] for c in st.fibers[mode])
        x = seen[-1]
        assert x.flags.c_contiguous and x.shape == (a.size, t.dims[mode - 1])
        assert x.tobytes() == fiber_rows_at(t, mode, a, b).tobytes()


@pytest.mark.parametrize("estimator", ["sgd", "sarah"])
def test_sampled_rows_are_rows_of_the_unfolding(estimator, monkeypatch):
    """The rows SGD and SARAH gather in `run` are C-contiguous and each is a
    row of the unfolding, bit for bit (the modes of (5, 7, 4) differ in
    I_n, so a batch's width names its mode)."""
    f, t = make_problem(seed=13, dims=(5, 7, 4), L=(2, 1))
    seen = _record_rows(monkeypatch)
    run(SolverConfig(ranks=f.ranks, estimator=estimator, epochs=2, B=4, seed=1), t)
    rows = {t.dims[m - 1]: {r.tobytes() for r in unfold(t, m)} for m in (1, 2, 3)}
    assert len({x.shape[1] for x in seen}) == 3
    for x in seen:
        assert x.flags.c_contiguous and x.shape[0] == 4
        assert all(r.tobytes() in rows[x.shape[1]] for r in x)
