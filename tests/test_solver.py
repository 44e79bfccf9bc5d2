import itertools
import math
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import als_mu_reference, palm_reference, run_reference
from midasll1 import model, solver
from midasll1.estimators import SagaState, SarahState, SgdState
from midasll1.model import LL1Factors, RankVector, lipschitz_bound, reconstruct
from midasll1.prox import NONE, NONNEG, Regularizer
from midasll1.solver import (
    STEP_SCALE,
    SolverAbort,
    SolverConfig,
    StepWindow,
    als_mu_baseline,
    effective_batches,
    epoch_coefficients,
    extrapolate,
    feasibility_check,
    inertial_coefficient,
    init_factors,
    palm_baseline,
    rng_streams,
    run,
)
from midasll1.synth import generate
from midasll1.tensor import DenseTensor3


def small_tensor(seed=0, dims=(6, 5, 4), L=(2, 1)):
    t, _ = generate(dims, RankVector(L), snr_db=math.inf, seed=seed)
    return t


def test_inertial_schedule_values():
    assert inertial_coefficient(0.3, 0) == 0.0
    assert inertial_coefficient(0.3, 1) == 0.0
    assert inertial_coefficient(0.3, 2) == pytest.approx(0.3 / 4)
    assert inertial_coefficient(0.3, -3) == 0.0  # pre-history indices never contribute
    assert inertial_coefficient(0.3, 10**7) == pytest.approx(0.3, rel=1e-5)


def _window(hist, t):
    """[A^k; d_1; ...; d_t] of an oldest-to-newest history: its last entry
    and its last t differences A^{j+1} - A^j, newest first, as the rows of a
    (t + 1, size) array, zero past the history; at t = 0 the one row A^k."""
    out = np.zeros((t + 1, hist[-1].size))
    out[0] = hist[-1].ravel()
    for i in range(1, min(t, len(hist) - 1) + 1):
        out[i] = (hist[-i] - hist[-i - 1]).ravel()
    return out


def test_extrapolate_short_history_is_base():
    h = [np.ones((2, 2))]
    y, u = extrapolate(h[-1], _window(h, 0), np.ones((2, 1)))
    assert y.tobytes() == u.tobytes() == h[0].tobytes()
    assert not np.shares_memory(y, h[0])
    # lags not yet taken are zero rows and add nothing
    y, u = extrapolate(h[-1], _window(h, 3), np.array([[1.0, 0.5, 0.5, 0.5]] * 2))
    np.testing.assert_array_equal(y, h[0])
    np.testing.assert_array_equal(u, h[0])


@pytest.mark.parametrize("t", [0, 1, 2, 3, 8])
def test_extrapolate_zero_steps_give_the_point_bit_for_bit(t):
    """A fixed point stays exact: 1 * A_n plus any weights times zero steps
    is A_n, bit for bit, whatever the weights."""
    rng = np.random.default_rng(t)
    for _ in range(20):
        base = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300)
        coeffs = np.hstack([np.ones((2, 1)), rng.uniform(-2, 2, (2, t))])
        for point in extrapolate(base, _window([base], t), coeffs):
            assert point.tobytes() == base.tobytes()


def test_extrapolate_two_point_formula():
    a0 = np.zeros((2, 2))
    a1 = np.ones((2, 2))
    y, u = extrapolate(a1, _window([a0, a1], 1), np.array([[1.0, 0.5], [1.0, 2.0]]))
    np.testing.assert_array_equal(y, 1.5 * np.ones((2, 2)))
    np.testing.assert_array_equal(u, 3.0 * np.ones((2, 2)))


def test_extrapolate_multi_term():
    rng = np.random.default_rng(0)
    hist = [rng.random((3, 2)) for _ in range(4)]
    coeffs = np.array([[1.0, 0.3, 0.2, 0.1], [1.0, 0.8, 0.5, 0.4]])
    points = extrapolate(hist[-1], _window(hist, 3), coeffs)
    for row, point in zip(coeffs, points):
        expected = hist[-1] + sum(c * (hist[-i] - hist[-i - 1])
                                  for i, c in enumerate(row[1:], start=1))
        np.testing.assert_allclose(point, expected, atol=1e-15)


def test_extrapolate_does_not_mutate_history():
    hist = [np.zeros((2, 2)), np.ones((2, 2))]
    rows = _window(hist, 2)
    snap = [h.copy() for h in [*hist, rows]]
    points = extrapolate(hist[-1], rows, np.array([[1.0, 0.7, 0.1], [1.0, 0.2, 0.3]]))
    for a, b in zip([*hist, rows], snap):
        np.testing.assert_array_equal(a, b)
    # both points are new arrays
    for point in points:
        assert not any(np.shares_memory(point, a) for a in [*hist, rows])


@pytest.mark.parametrize("t", [0, 1, 2, 3, 8])
def test_extrapolate_against_sequential_sum(t):
    """t = 0 gives base bit for bit; deeper windows weigh base by 1 inside
    the product, which may round the last bits apart from adding the lags one
    by one to base."""
    rng = np.random.default_rng(t)
    shape = (40, 7)
    for trial in range(20):
        base = rng.standard_normal(shape)
        steps = rng.standard_normal((t, *shape)) * 10.0 ** rng.integers(-3, 3)
        coeffs = rng.uniform(-1, 1, (2, t))
        rows = np.vstack([base.reshape(1, -1), steps.reshape(t, base.size)])
        weights = np.hstack([np.ones((2, 1)), coeffs])
        for row, point in zip(coeffs, extrapolate(base, rows, weights)):
            seq = base
            for c, d in zip(row, steps):
                seq = seq + c * d
            if t == 0:
                assert point.tobytes() == seq.tobytes()
            else:  # a few ulps of the largest term
                scale = np.abs(base) + sum(np.abs(c * d) for c, d in zip(row, steps))
                assert (np.abs(point - seq) <= 4 * t * np.finfo(float).eps * scale).all()


@pytest.mark.parametrize("t", [1, 2, 3, 8])
def test_step_window_holds_the_point_and_last_steps(t):
    """After each push the window holds [A^k; d_1; ...; d_t] of the pushed
    history bit for bit, newest step first, through many moves of the window
    back to the buffer's end; `push` returns the newest step's row."""
    rng = np.random.default_rng(t)
    hist = [rng.standard_normal((6, 5))]
    window = StepWindow(hist[0], t)
    assert window.rows.tobytes() == _window(hist, t).tobytes()
    for _ in range(5 * (t + 1) + 1):
        hist.append(rng.standard_normal((6, 5)))
        d = window.push(hist[-1])
        assert d.tobytes() == (hist[-1] - hist[-2]).tobytes()
        assert np.shares_memory(d, window.rows[1])
        assert window.rows.tobytes() == _window(hist, t).tobytes()


def test_epoch_coefficients_match_schedule():
    """Each step's row of the epoch table holds 1 (the weight of A_n) and then
    `inertial_coefficient` of its lags, newest first, bit for bit: lag j of
    step k + i sits at [i, :, j], for k from -8 to 10**6 (a negative scale
    keeps the signed zero at k = 1)."""
    for t in (0, 1, 3, 8):
        for k, count in ((-t, 9), (0, 6), (5, 6), (10**6 - 5, 6), (-8, 10**4)):
            ks = range(k + 1 - t, k + count)
            sched = [[inertial_coefficient(s, m) for m in ks] for s in (0.3, -0.8)]
            got = epoch_coefficients(*sched, t)
            assert got.shape == (count, 2, t + 1) and got.flags.c_contiguous
            want = np.array([[[1.0, *(inertial_coefficient(s, k + i + 1 - j)
                                      for j in range(1, t + 1))]
                              for s in (0.3, -0.8)] for i in range(count)])
            assert got.tobytes() == want.tobytes()
    ks = range(-8, 10**6 + 1)
    sched = [[inertial_coefficient(s, m) for m in ks] for s in (0.3, -0.8)]
    assert epoch_coefficients(*sched, 1)[:, :, 1].T.tobytes() == np.array(sched).tobytes()


def test_rng_streams_independent_and_reproducible():
    a = rng_streams(42)
    b = rng_streams(42)
    for name in ("init", "mode", "fiber", "noise"):
        np.testing.assert_array_equal(a[name].random(8), b[name].random(8))
    c = rng_streams(42)
    c["mode"].integers(3, size=100)  # consuming one stream
    np.testing.assert_array_equal(
        c["fiber"].random(8), rng_streams(42)["fiber"].random(8)
    )


def test_config_validation():
    rk = RankVector((2,))
    with pytest.raises(ValueError):
        SolverConfig(ranks=rk, estimator="adam")
    with pytest.raises(ValueError):
        SolverConfig(ranks=rk, t=-1)
    with pytest.raises(ValueError):
        SolverConfig(ranks=rk, mode_policy="random")
    with pytest.raises(ValueError):
        SolverConfig(ranks=rk, step_rule="fixed")
    for bad in ({"eta": 0.0}, {"eta": math.inf}, {"alpha0": math.nan}, {"beta0": -math.inf},
                {"B": -1}, {"sarah_q": -1}):
        with pytest.raises(ValueError):
            SolverConfig(ranks=rk, **bad)
    # ranks must be a RankVector; init None or a point of those ranks
    with pytest.raises(ValueError, match="ranks must be a RankVector"):
        SolverConfig(ranks=(2, 1))
    other = LL1Factors(np.ones((2, 3)), np.ones((3, 3)), np.ones((4, 2)), RankVector((1, 2)))
    for bad_init in ("zeros", "uniform", other, other.A1):
        with pytest.raises(ValueError, match="init must be None or an LL1Factors"):
            SolverConfig(ranks=RankVector((2, 1)), init=bad_init)
    # the integer fields take Python or numpy integers, stored as int, and
    # reject a bool or a float by name (as RankVector does its widths)
    # reg must be a Regularizer: a kind name alone is rejected by name
    for bad_reg in ("nonneg", None, ("ridge", 0.1)):
        message = f"^reg must be a Regularizer, got {re.escape(repr(bad_reg))}$"
        with pytest.raises(ValueError, match=message):
            SolverConfig(ranks=rk, reg=bad_reg)
    for name in ("t", "B", "epochs", "seed", "sarah_q"):
        cfg = SolverConfig(ranks=rk, **{name: np.int64(2)})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2
        for bad in (True, 2.0, 1.5, "2", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                SolverConfig(ranks=rk, **{name: bad})


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_numpy_integer_config_runs_as_plain_ints(estimator):
    t = small_tensor()
    plain = dict(t=2, B=5, epochs=3, seed=4, sarah_q=2)
    fa, tra = run(SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, **plain), t)
    fb, trb = run(SolverConfig(ranks=RankVector((2, 1)), estimator=estimator,
                               **{k: np.int64(v) for k, v in plain.items()}), t)
    for n in (1, 2, 3):
        np.testing.assert_array_equal(fa.factor(n), fb.factor(n))
    assert tra.phi == trb.phi and tra.step_sizes == trb.step_sizes


def test_default_batch_size_is_twice_max_block():
    """B = 0 takes 2 * max L_r = 6, clamped to J_3 = 4; a given B is kept."""
    dims = (2, 2, 10)  # J = (20, 20, 4)
    cfg = SolverConfig(ranks=RankVector((2, 3)), estimator="sgd")
    assert effective_batches(cfg, dims) == {1: 6, 2: 6, 3: 4}
    assert effective_batches(replace(cfg, B=5), dims) == {1: 5, 2: 5, 3: 4}


def test_effective_batches_saga_divisor():
    cfg = SolverConfig(ranks=RankVector((2, 3)), estimator="saga", B=7)
    # J = (20, 30, 12) for dims (3, 2, 10)... use explicit dims
    out = effective_batches(cfg, (3, 2, 10))
    # J1 = 2*10 = 20 -> largest divisor <= 7 is 5; J2 = 30 -> 6; J3 = 6 -> 6
    assert out == {1: 5, 2: 6, 3: 6}


def test_effective_batches_clamped_to_jn():
    cfg = SolverConfig(ranks=RankVector((2,)), estimator="sgd", B=100)
    out = effective_batches(cfg, (2, 3, 4))
    assert out == {1: 12, 2: 8, 3: 6}


def test_init_factors_deterministic_and_in_range():
    cfg = SolverConfig(ranks=RankVector((2, 1)))
    f1 = init_factors(cfg, (4, 5, 3), rng_streams(7)["init"])
    f2 = init_factors(cfg, (4, 5, 3), rng_streams(7)["init"])
    for n in (1, 2, 3):
        np.testing.assert_array_equal(f1.factor(n), f2.factor(n))
        assert f1.factor(n).min() >= 0 and f1.factor(n).max() < 1


@pytest.mark.parametrize("seed", [0, 7, 1021])
def test_generate_truth_is_the_solver_start_of_the_same_seed(seed):
    """The README "Seeds" fact: `generate` and the solver's initialisation
    draw the same factors from the "init" stream of one seed."""
    rk, dims = RankVector((3, 1)), (5, 4, 6)
    _, truth = generate(dims, rk, 20.0, seed)
    start = init_factors(SolverConfig(rk, seed=seed), dims, rng_streams(seed)["init"])
    for n in (1, 2, 3):
        assert truth.factor(n).tobytes() == start.factor(n).tobytes()


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan, 1e308, -1e308])
def test_generate_rejects_snr_db_that_is_not_finite_or_plus_inf(snr_db):
    """Only +inf means noiseless: -inf is not taken for it.  No value is
    reported as a non-finite tensor entry or an overflow: past +-1000 dB,
    the bound the CLI's --snr-db shares, the argument is named."""
    with pytest.raises(ValueError, match="snr_db must be \\+inf or a number from -1000 to 1000"):
        generate((4, 3, 2), RankVector((1,)), snr_db, 0)


def test_init_factors_accepts_explicit_point():
    rk = RankVector((1,))
    given = LL1Factors(np.ones((2, 1)), np.ones((3, 1)), np.ones((4, 1)), rk)
    cfg = SolverConfig(ranks=rk, init=given)
    f = init_factors(cfg, (2, 3, 4), rng_streams(0)["init"])
    np.testing.assert_array_equal(f.A1, given.A1)
    assert f.A1 is not given.A1  # defensive copy


def test_run_is_bitwise_deterministic():
    t = small_tensor()
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=5, seed=3)
    fa, tra = run(cfg, t)
    fb, trb = run(cfg, t)
    for n in (1, 2, 3):
        np.testing.assert_array_equal(fa.factor(n), fb.factor(n))
    assert tra.phi == trb.phi and tra.step_norm == trb.step_norm


# (dims, ranks): I2 = 7 is not a multiple of the batch size, so mode-1 bins
# (consecutive fibers, i2 fastest) straddle an i3 boundary
REFERENCE_SHAPE = ((5, 7, 4), (2, 1))
REFERENCE_CASES = [
    *({"estimator": est, "t": t} for est in ("sgd", "saga", "sarah") for t in (0, 1, 3)),
    # t = 0 under every prox, each written into the product's array by `out=`
    *({"estimator": est, "t": 0, "reg": reg} for est in ("sgd", "saga", "sarah")
      for reg in (NONE, Regularizer("ridge", 0.01))),
    *({"estimator": est, "eta": 0.1} for est in ("sgd", "saga", "sarah")),
    *({"estimator": est, "mode_policy": "cyclic"} for est in ("sgd", "saga", "sarah")),
    *({"estimator": est, "step_rule": "inverse_lipschitz", "reg": NONE}
      for est in ("sgd", "saga", "sarah")),
    {"estimator": "saga", "reg": Regularizer("ridge", 0.01), "t": 2},
    {"estimator": "sarah", "sarah_q": 3, "B": 5},
    {"estimator": "saga", "B": 10**6},
    {"estimator": "sgd", "B": 10**6, "mode_policy": "cyclic", "t": 2},
    {"estimator": "sarah", "B": 10**6},
    # a zero inertial scale: its coefficient rows add nothing, so the point
    # keeps the bits of A_n
    {"estimator": "saga", "alpha0": 0.0},
    {"estimator": "sgd", "beta0": 0.0},
    {"estimator": "sarah", "alpha0": 0.0, "beta0": 0.0},
]
# a depth beyond the 21 steps of one SGD epoch, so every step has zero rows
REFERENCE_CASES.append({"estimator": "sgd", "t": 24, "epochs": 1})
# 87-99 steps per mode (47 SAGA steps an epoch), so each mode's window moves
# back to its buffer's end, once every t + 1 steps, at least 29 times at t = 2
# and 9 times at t = 8; t = 8 at the default inertia collapses a block by
# iteration 235, so it runs at about a third of it
REFERENCE_CASES += [{"estimator": "saga", "t": 2},
                    {"estimator": "saga", "t": 8, "alpha0": 0.1, "beta0": 0.25}]


def _case_id(case):
    return "-".join(
        f"{k}={v.kind if isinstance(v, Regularizer) else v}" for k, v in case.items()
    )


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_run_matches_reference(case):
    """`run` reproduces the step-by-step reference loop bit for bit: factors
    and every trace column except the wall-clock times."""
    dims, L = REFERENCE_SHAPE
    t = small_tensor(seed=21, dims=dims, L=L)
    cfg = SolverConfig(**{"ranks": RankVector(L), "epochs": 6, "seed": 5, "B": 4, **case})
    fr, ref = run_reference(cfg, t)
    fm, trm = run(cfg, t)
    for n in (1, 2, 3):
        np.testing.assert_array_equal(fm.factor(n), fr.factor(n))
    for column in ("epoch", "iteration", "phi", "f", "step_norm", "mode_counts", "step_sizes"):
        assert getattr(trm, column) == getattr(ref, column), column


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
@pytest.mark.parametrize(
    "variant", [{}, {"B": 10**6}, {"step_rule": "inverse_lipschitz", "reg": NONE}],
    ids=["default", "full-batch", "inverse-lipschitz"])
def test_step_builds_two_points(estimator, variant, monkeypatch):
    """Every step builds two `LL1Factors`: the gradient point, at which SGD,
    SAGA, SARAH, a full batch and the 1/L step all evaluate, and from it the
    new iterate."""
    calls = []
    replaced = LL1Factors.replaced

    def counting(self, mode, a):
        calls.append(mode)
        return replaced(self, mode, a)

    monkeypatch.setattr(LL1Factors, "replaced", counting)
    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, epochs=3, seed=2, **variant)
    _, trace = run(cfg, small_tensor())
    assert len(calls) == 2 * trace.iteration[-1]


@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_step_calls_extrapolate_and_prox_once(estimator, t, monkeypatch):
    """Every step forms its points with one `extrapolate` call and its
    iterate with one `prox` call, both by their module names, so that the
    benchmark's traced call counts of the two equal the iterations."""
    calls = {"extrapolate": 0, "prox": 0}

    def counting(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, t=t, epochs=3, seed=2)
    _, trace = run(cfg, small_tensor())
    assert calls == {"extrapolate": trace.iteration[-1], "prox": trace.iteration[-1]}


@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_no_output_is_a_view_of_the_step_stack(estimator, t, monkeypatch):
    """The step windows are overwritten in place, so neither the points
    `extrapolate` returns, nor the factors `run` returns, nor those its
    callback sees, nor SARAH's stored points may share memory with them.
    At every depth, t = 0 included, the new iterate is written over the prox
    anchor, in the product's own array; no array a caller was handed changes
    afterwards, and the point `run` returns shares no memory with any
    product."""
    windows, points = [], []

    def recording(base, rows, coeffs):
        out = extrapolate(base, rows, coeffs)
        windows.append(rows)
        points.extend(out)
        return out

    monkeypatch.setattr(solver, "extrapolate", recording)
    seen = []

    def callback(epoch, factors, state):
        arrays = [factors.factor(n) for n in (1, 2, 3)]
        if estimator == "sarah":
            for prev in state.prev_point.values():
                arrays.extend(prev.factor(n) for n in (1, 2, 3))
        seen.extend((a, a.copy()) for a in arrays)

    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, t=t, epochs=3, seed=4)
    factors, _ = run(cfg, small_tensor(), callback=callback)
    final = [factors.factor(n) for n in (1, 2, 3)]
    for a, snapshot in seen:
        assert a.tobytes() == snapshot.tobytes()
    assert all(len(rows) == t + 1 for rows in windows)
    buffers = {id(rows.base): rows.base for rows in windows}.values()  # one per mode, kept
    assert len(buffers) == 3
    arrays = [*final, *(a for a, _ in seen), *points]
    assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)
    assert not any(np.shares_memory(a, y) for a in final for y in points)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_run_abort_matches_reference(estimator):
    """A diverging run aborts at the same iteration and mode as the reference."""
    t = small_tensor(seed=5)
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=50, seed=0, reg=NONE, eta=1e6,
                       estimator=estimator)
    with pytest.raises(SolverAbort) as ref:
        run_reference(cfg, t)
    with pytest.raises(SolverAbort) as got:
        run(cfg, t)
    assert (got.value.iteration, got.value.mode) == (ref.value.iteration, ref.value.mode)


def test_abort_raises_no_warning():
    """A diverging run ends in `SolverAbort` even with warnings as errors: the
    overflow on the way to the abort is not reported as a RuntimeWarning."""
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=2, eta=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort):
            run(cfg, small_tensor(seed=3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_reconstruction_is_a_solver_abort():
    """Finite factors whose reconstruction overflows end the run with a
    `SolverAbort` that names the reconstruction, at the iteration and mode of
    the reference loop, and not with the input check's `ValueError`."""
    t = small_tensor(seed=11)
    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator="saga", eta=3.0, reg=NONE,
                       epochs=200, seed=12)
    with pytest.raises(SolverAbort) as ref:
        run_reference(cfg, t)
    with pytest.raises(SolverAbort, match="the reconstruction overflows") as got:
        run(cfg, t)
    assert (got.value.iteration, got.value.mode) == (ref.value.iteration, ref.value.mode)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("step_rule", ["schedule", "inverse_lipschitz"])
def test_overflowing_lipschitz_bound_is_a_solver_abort(step_rule):
    """Factors too large for their Gram (a uniform start times 1e80) have a
    Lipschitz bound that overflows on every mode: `lipschitz_bound` is inf,
    and the run aborts naming the overflow, not a collapsed factor, at the
    iteration and mode of the reference loop."""
    t = small_tensor()
    rk = RankVector((2, 1))
    start = init_factors(SolverConfig(ranks=rk), t.dims, rng_streams(0)["init"])
    big = LL1Factors(1e80 * start.A1, 1e80 * start.A2, 1e80 * start.A3, rk)
    assert [lipschitz_bound(big, n) for n in (1, 2, 3)] == [math.inf] * 3
    cfg = SolverConfig(ranks=rk, init=big, epochs=3, step_rule=step_rule)
    with pytest.raises(SolverAbort) as ref:
        run_reference(cfg, t)
    with pytest.raises(SolverAbort, match=r"Lipschitz bound of mode \d overflows at iteration 0: "
                       "the factors diverged") as got:
        run(cfg, t)
    assert (got.value.iteration, got.value.mode) == (ref.value.iteration, ref.value.mode)


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_run_decreases_objective(estimator):
    t = small_tensor(seed=1)
    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, epochs=40, seed=0)
    _, trace = run(cfg, t)
    assert trace.phi[-1] < 0.5 * trace.phi[0]


def test_run_respects_nonneg_constraint():
    t = small_tensor(seed=2)
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=10, reg=NONNEG, seed=1)
    f, _ = run(cfg, t)
    for n in (1, 2, 3):
        assert f.factor(n).min() >= 0.0


def test_run_trace_bookkeeping():
    t = small_tensor(seed=3, dims=(4, 4, 4), L=(2,))
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=6, seed=0, estimator="sgd")
    _, trace = run(cfg, t)
    assert len(trace) == 6
    assert trace.epoch == list(range(1, 7))
    # iterations per epoch = sum_n ceil(J_n / B_n) with B = 4, J_n = 16
    assert trace.iteration == [12 * e for e in range(1, 7)]
    for counts in trace.mode_counts:
        assert sum(counts) == 12
    assert all(b >= a for a, b in zip(trace.elapsed_s, trace.elapsed_s[1:]))


def test_cyclic_mode_policy_counts():
    t = small_tensor(seed=4, dims=(4, 4, 4), L=(2,))
    cfg = SolverConfig(
        ranks=RankVector((2,)), epochs=2, seed=0, estimator="sgd", mode_policy="cyclic"
    )
    _, trace = run(cfg, t)
    for counts in trace.mode_counts:
        assert counts == (4, 4, 4)


@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_run_early_stop_on_exact_fit_at_every_depth(estimator, t):
    """At an exact fit every gradient and step is zero, and 1 * A_n plus
    weights times zero steps is A_n, so the fit stays exact at any depth."""
    rk = RankVector((1,))
    f = LL1Factors(0.5 * np.ones((3, 1)), 0.5 * np.ones((3, 1)), 0.5 * np.ones((3, 1)), rk)
    cfg = SolverConfig(ranks=rk, epochs=50, init=f, abs_tol=1e-12, estimator=estimator, t=t)
    factors, trace = run(cfg, reconstruct(f))
    assert len(trace) == 1 and trace.phi[0] == 0.0
    for n in (1, 2, 3):
        assert factors.factor(n).tobytes() == f.factor(n).tobytes()


def test_run_early_stop_on_exact_fit():
    rk = RankVector((1,))
    f = LL1Factors(
        0.5 * np.ones((3, 1)), 0.5 * np.ones((3, 1)), 0.5 * np.ones((3, 1)), rk
    )
    t = reconstruct(f)
    cfg = SolverConfig(ranks=rk, epochs=50, init=f, abs_tol=1e-12, estimator="sgd")
    _, trace = run(cfg, t)
    assert len(trace) == 1 and trace.phi[0] == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_nan_abort():
    t = small_tensor(seed=5)
    cfg = SolverConfig(
        ranks=RankVector((2, 1)),
        epochs=50,
        seed=0,
        reg=NONE,
        eta=1e6,
        estimator="sgd",
    )
    with pytest.raises(SolverAbort) as exc:
        run(cfg, t)
    assert exc.value.iteration >= 0 and exc.value.mode in (1, 2, 3)


@pytest.mark.parametrize("variant, data_seed, head", [
    ({"estimator": "sgd", "eta": 1e6}, 5, "non-finite factor entries"),
    ({"estimator": "saga", "eta": 3.0, "seed": 12}, 11, "the reconstruction overflows"),
], ids=["non-finite", "reconstruction"])
def test_abort_message_names_the_depth(variant, data_seed, head):
    """Inertial depth makes a step infeasible as much as eta, alpha and beta
    do, so both messages of an infeasible run name all four."""
    cfg = SolverConfig(**{"ranks": RankVector((2, 1)), "epochs": 200, "reg": NONE, **variant})
    with np.errstate(all="ignore"), pytest.raises(SolverAbort) as exc:
        run(cfg, small_tensor(seed=data_seed))
    message = str(exc.value)
    assert message.startswith(head)
    assert message.endswith("; the (t, eta, alpha, beta) configuration is likely infeasible")


def test_run_callback_invoked_each_epoch():
    t = small_tensor(seed=6, dims=(4, 4, 4), L=(2,))
    seen = []
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=4, seed=0)
    run(cfg, t, callback=lambda e, f, s: seen.append(e))
    assert seen == [1, 2, 3, 4]


@pytest.mark.parametrize("estimator, kind",
                         [("sgd", SgdState), ("saga", SagaState), ("sarah", SarahState)])
def test_callback_gets_the_runs_estimator(estimator, kind):
    """Every estimator, SGD's included, reaches the callback as an object with
    `draw` and `estimate`, the same one after each epoch."""
    seen = []
    cfg = SolverConfig(ranks=RankVector((2,)), estimator=estimator, epochs=2, seed=0)
    run(cfg, small_tensor(seed=6, dims=(4, 4, 4), L=(2,)), callback=lambda e, f, s: seen.append(s))
    assert len(seen) == 2 and seen[0] is seen[1]
    assert type(seen[0]) is kind
    assert callable(seen[0].draw) and callable(seen[0].estimate)


def test_callback_runs_under_callers_errstate():
    """`run` quiets overflow only in its own arithmetic: the callback sees
    the caller's floating-point error settings."""
    t = small_tensor(seed=6, dims=(4, 4, 4), L=(2,))
    seen = []
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=2, seed=0)
    with np.errstate(over="raise", invalid="warn"):
        run(cfg, t, callback=lambda e, f, s: seen.append(np.geterr()))
    assert [(s["over"], s["invalid"]) for s in seen] == [("raise", "warn")] * 2


def test_run_virtual_clock():
    t = small_tensor(seed=7, dims=(4, 4, 4), L=(2,))
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=3, seed=0)
    ticks = itertools.count()
    _, trace = run(cfg, t, clock=lambda: float(next(ticks)))
    assert trace.elapsed_s == [1.0, 2.0, 3.0]


def test_reduction_to_palm():
    """t=0, full batches, cyclic modes and 1/L steps reproduce the
    deterministic baseline exactly: `run` and `palm_baseline` both match a
    hand-written PALM loop bit for bit."""
    t = small_tensor(seed=8, dims=(5, 4, 3), L=(2,))
    rk = RankVector((2,))
    big = max(t.dims) * max(t.dims)
    cfg = SolverConfig(
        ranks=rk,
        estimator="sgd",
        t=0,
        B=10**6,
        epochs=20,
        seed=2,
        mode_policy="cyclic",
        step_rule="inverse_lipschitz",
        abs_tol=0.0,
    )
    fr, phi, f, step_norm = palm_reference(cfg, t)
    assert len(phi) == 20
    for fm, trm in (run(cfg, t), palm_baseline(cfg, t)):
        for n in (1, 2, 3):
            np.testing.assert_array_equal(fm.factor(n), fr.factor(n))
        assert trm.phi == phi
        assert trm.f == f
        assert trm.step_norm == step_norm


def test_palm_monotone_and_converges():
    t = small_tensor(seed=9)
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=100, seed=0, abs_tol=0.0)
    _, trace = palm_baseline(cfg, t)
    assert all(b <= a + 1e-10 for a, b in zip(trace.phi, trace.phi[1:]))
    assert trace.phi[-1] < trace.phi[0]


def _scaled_instance(scale):
    t, _ = generate((12, 12, 12), RankVector((2, 2)), snr_db=30.0, seed=105)
    return DenseTensor3(t.array * scale)


def test_palm_monotonicity_check_scales_with_the_data():
    """f rounds to a few ulps of ||X||^2 / (2N), so on this instance scaled
    by 1e3 an absolute 1e-10 allowance read a rounding-level rise at sweep
    1391 as an increase; the allowance scaled by ||X||^2 / (2N) does not."""
    cfg = SolverConfig(ranks=RankVector((2, 2)), epochs=1500, seed=0, abs_tol=0.0)
    _, trace = palm_baseline(cfg, _scaled_instance(1e3))
    assert len(trace) == 1500


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_palm_too_long_steps_still_raise(scale, monkeypatch):
    """Steps of 2.2/L overshoot: the scaled allowance still reports the
    increase, on data of unit scale and scaled by 1e4."""
    exact = solver.lipschitz_bound
    monkeypatch.setattr(solver, "lipschitz_bound", lambda f, n: exact(f, n) / 2.2)
    cfg = SolverConfig(ranks=RankVector((2, 2)), epochs=20, seed=0, abs_tol=0.0)
    with pytest.raises(RuntimeError, match="^objective increased at sweep [01]: "):
        palm_baseline(cfg, _scaled_instance(scale))


def test_eta_with_inverse_lipschitz_steps_is_rejected():
    """1/L steps never read `eta`, so a config that sets both is refused by
    name rather than run with the given `eta` silently ignored."""
    with pytest.raises(ValueError, match="^eta must be None when step_rule is "
                                         r"'inverse_lipschitz' \(1/L steps\), got eta = 123\.0$"):
        SolverConfig(ranks=RankVector((2, 1)), eta=123.0, step_rule="inverse_lipschitz")


def test_zero_lipschitz_bound_aborts():
    """A factor clipped to zero leaves no 1/L step: SolverAbort, not a division by zero."""
    t = DenseTensor3(-np.ones((4, 4, 4)))
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=3, reg=NONNEG)
    with pytest.raises(SolverAbort, match="A1 collapsed to zero") as exc:
        palm_baseline(cfg, t)
    assert (exc.value.iteration, exc.value.mode) == (1, 2)
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=3, reg=NONNEG, t=1,
                       estimator="sgd", step_rule="inverse_lipschitz")
    with pytest.raises(SolverAbort, match="Lipschitz bound of mode"):
        run(cfg, t)


def test_default_step_zero_bound_aborts_at_epoch_start():
    """Under eta None the steps STEP_SCALE / L_n are formed when an epoch
    starts; a factor that is zero then leaves no step: SolverAbort naming
    the mode, before the epoch takes a step."""
    t = DenseTensor3(-np.ones((4, 4, 4)))
    rk = RankVector((2,))
    cfg = SolverConfig(ranks=rk, epochs=200, reg=NONNEG, estimator="sgd")
    assert cfg.eta is None
    with pytest.raises(SolverAbort, match="Lipschitz bound of mode 1 is zero") as exc:
        run(cfg, t)
    iters_per_epoch = 12  # 3 modes x 16 fibers / B = 4
    assert exc.value.iteration > 0 and exc.value.iteration % iters_per_epoch == 0
    assert exc.value.mode == 1
    # a zero factor in the start point: the bound of mode 2 (which reads A1) is zero
    start = init_factors(cfg, t.dims, rng_streams(0)["init"])
    cfg = SolverConfig(ranks=rk, epochs=3, reg=NONNEG,
                       init=LL1Factors(np.zeros_like(start.A1), start.A2, start.A3, rk))
    with pytest.raises(SolverAbort, match="mode 2 is zero at iteration 0: A1 collapsed") as exc:
        run(cfg, t)
    assert (exc.value.iteration, exc.value.mode) == (0, 2)


def test_alsmu_monotone_and_nonneg():
    t = small_tensor(seed=10)
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=200, seed=0, abs_tol=0.0)
    f, trace = als_mu_baseline(cfg, t)
    assert all(b <= a + 1e-8 for a, b in zip(trace.phi, trace.phi[1:]))
    for n in (1, 2, 3):
        assert f.factor(n).min() >= 0.0


@pytest.mark.parametrize("dims, L, sweeps", [
    ((6, 5, 4), (2, 1), 200),
    ((12, 12, 12), (2, 2), 60),
    ((100, 100, 50), (4, 4, 4), 3),
])
def test_als_mu_matches_unfolding_reference(dims, L, sweeps):
    """`als_mu_baseline`, which takes X_(n)^T H_n from `mttkrp` and the Gram
    from `gram_H`, follows the update written with the whole H_n and the
    unfoldings to rounding: same sweeps, factors to 1e-12 of the largest
    entry and phi to 1e-12 relative."""
    rk = RankVector(L)
    t = DenseTensor3(np.abs(generate(dims, rk, snr_db=30.0, seed=sum(dims))[0].array))
    cfg = SolverConfig(ranks=rk, epochs=sweeps, seed=3)
    f, trace = als_mu_baseline(cfg, t)
    fr, phi = als_mu_reference(cfg, t)
    assert len(trace.phi) == len(phi) == sweeps
    for n in (1, 2, 3):
        a, ar = f.factor(n), fr.factor(n)
        assert np.abs(a - ar).max() <= 1e-12 * np.abs(ar).max()
    np.testing.assert_allclose(trace.phi, phi, rtol=1e-12, atol=0.0)


def test_als_mu_makes_no_unfolding_copy():
    """A sweep at the mid benchmark shape (a 4 MB tensor) allocates less
    than 1 MB: no unfolding copy, no J_n x L H_n and (away from an exact
    fit) no reconstruction for the objective."""
    rk = RankVector((4, 4, 4))
    t = DenseTensor3(np.abs(generate((100, 100, 50), rk, snr_db=30.0, seed=5)[0].array))
    cfg = SolverConfig(ranks=rk, epochs=1, seed=0)
    als_mu_baseline(cfg, t)
    tracemalloc.start()
    try:
        als_mu_baseline(cfg, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_a_sweep_contracts_the_tensor_twice(monkeypatch):
    """A PALM or ALS-MU sweep makes one Y contraction, which modes 1 and 2
    share, and one mode-3 contraction, which the sweep's objective reuses,
    both kept on the tensor; `palm_baseline`'s start objective adds one
    mode-3 contraction."""
    calls = {}
    contract = model._contract

    def counting(factors, x, mode):
        kind = "m3" if mode == 3 else "y"
        calls[kind] = calls.get(kind, 0) + 1
        return contract(factors, x, mode)

    monkeypatch.setattr(model, "_contract", counting)
    sweeps = 7
    t, _ = generate((6, 5, 4), RankVector((2, 1)), snr_db=20.0, seed=0)
    t = DenseTensor3(np.abs(t.array))
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=sweeps, seed=3)
    for baseline, start in ((palm_baseline, 1), (als_mu_baseline, 0)):
        calls.clear()
        _, trace = baseline(cfg, t)
        assert len(trace) == sweeps
        assert calls == {"y": sweeps, "m3": sweeps + start}


def test_a_sweep_computes_three_grams(monkeypatch):
    """A PALM or ALS-MU sweep computes each mode's Gram once: the step's
    Gram rides on to the new iterate, and the sweep's objective reuses the
    mode-3 one; `palm_baseline`'s start objective adds one mode-3 Gram."""
    calls = []
    gram = model._gram

    def counting(factors, mode):
        calls.append(mode)
        return gram(factors, mode)

    monkeypatch.setattr(model, "_gram", counting)
    sweeps = 7
    t, _ = generate((6, 5, 4), RankVector((2, 1)), snr_db=20.0, seed=0)
    t = DenseTensor3(np.abs(t.array))
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=sweeps, seed=3)
    for baseline, start in ((palm_baseline, 1), (als_mu_baseline, 0)):
        calls.clear()
        _, trace = baseline(cfg, t)
        assert len(trace) == sweeps
        assert len(calls) == start + 3 * sweeps


def test_returned_points_hold_no_tensor():
    """A point from `run`, `palm_baseline` or `als_mu_baseline` at the mid
    benchmark shape holds its factors, not the 4 MB tensor, so it pickles to
    under 100 KB; its factors are read-only."""
    ranks = RankVector((4, 4, 4))
    t, _ = generate((100, 100, 50), ranks, snr_db=30.0, seed=1)
    t = DenseTensor3(np.abs(t.array))
    cfg = SolverConfig(ranks=ranks, epochs=1, seed=2)
    for solve in (run, palm_baseline, als_mu_baseline):
        factors, _ = solve(cfg, t)
        assert len(pickle.dumps(factors)) < 100_000
        for n in (1, 2, 3):
            with pytest.raises(ValueError):
                factors.factor(n)[0, 0] = 1.0


def test_returned_points_are_constructed():
    """The point `run`, `palm_baseline` or `als_mu_baseline` returns is built
    like a caller's: it holds only its factors and ranks, in read-only arrays
    that it owns, not views of the loop's buffers or its kept Grams."""
    t = DenseTensor3(np.abs(small_tensor(seed=6).array))
    cfg = SolverConfig(ranks=RankVector((2, 1)), epochs=2, seed=7)
    for solve in (run, palm_baseline, als_mu_baseline):
        factors, _ = solve(cfg, t)
        assert set(vars(factors)) == {"A1", "A2", "A3", "ranks"}
        for n in (1, 2, 3):
            a = factors.factor(n)
            assert a.base is None and a.flags.owndata and not a.flags.writeable


def test_alsmu_rejects_negative_tensor():
    cube = -np.ones((2, 2, 2))
    cfg = SolverConfig(ranks=RankVector((1,)), epochs=1)
    with pytest.raises(ValueError):
        als_mu_baseline(cfg, DenseTensor3(cube))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_alsmu_rejects_negative_init(mode):
    rk = RankVector((1,))
    arrays = [np.ones((2, 1)) for _ in range(3)]
    arrays[mode - 1][1, 0] = -1.0
    cfg = SolverConfig(ranks=rk, epochs=1, init=LL1Factors(*arrays, rk))
    with pytest.raises(ValueError, match="require a nonnegative init"):
        als_mu_baseline(cfg, DenseTensor3(np.ones((2, 2, 2))))


def test_alsmu_stops_early_at_an_exact_fit():
    """A noiseless tensor started at its truth stays below `abs_tol` after
    the first sweep, which ends the run."""
    rk = RankVector((2, 1))
    t, truth = generate((6, 5, 4), rk, snr_db=math.inf, seed=8)
    _, trace = als_mu_baseline(SolverConfig(ranks=rk, epochs=20, init=truth), t)
    assert len(trace) == 1 and trace.phi[0] < 1e-12


@pytest.mark.parametrize("solve", [run, palm_baseline, als_mu_baseline])
def test_init_of_other_dims_is_rejected(solve):
    rk = RankVector((2, 1))
    _, truth = generate((6, 5, 4), rk, snr_db=math.inf, seed=8)
    with pytest.raises(ValueError, match=re.escape("(6, 5, 4) do not match tensor")):
        solve(SolverConfig(ranks=rk, epochs=1, init=truth), small_tensor(dims=(6, 5, 3)))


def test_feasibility_zero_inertia_closed_form():
    # alpha = beta = 0: delta > 0 iff eta < 2 / (4L + gamma*(t+2)*(t+3))
    lip, gamma, t = 0.8, 0.3, 2
    bound = 2.0 / (4.0 * lip + gamma * (t + 2) * (t + 3))
    below = feasibility_check(t, 0.999 * bound, lip, gamma, 0.0, 0.0)
    above = feasibility_check(t, 1.001 * bound, lip, gamma, 0.0, 0.0)
    assert below.feasible and below.delta > 0
    assert not above.feasible and above.delta < 0
    assert below.eta_max == pytest.approx(bound, rel=1e-12)


def test_feasibility_hand_computed_delta():
    # t=1, eta=0.1, L=1, gamma=0, alpha=0.2, beta=0.5:
    #   a = 1.5*1*1*0.25 + 0 + 0.2/0.2 = 1.375
    #   b = (1 - 0.2 - 0.2) / 0.2 = 3.0
    #   S = sum_{j=1}^{2} (j+1) = 5; delta = 3 - 5*1.375 = -3.875
    rep = feasibility_check(1, 0.1, 1.0, 0.0, 0.2, 0.5)
    assert rep.abar == pytest.approx(1.375, abs=1e-12)
    assert rep.b_lower == pytest.approx(3.0, abs=1e-12)
    assert rep.delta == pytest.approx(-3.875, abs=1e-12)
    assert not rep.feasible


def test_feasibility_tail_vacuous_without_diagonal_weight():
    rep = feasibility_check(2, 1e-3, 1.0, 0.0, 0.0, 0.0)
    assert rep.tail_margin == 0.0
    assert rep.feasible  # tail condition only binds when gamma > 0


def test_feasibility_rejects_bad_eta():
    with pytest.raises(ValueError):
        feasibility_check(1, 0.0, 1.0, 0.0, 0.1, 0.1)


@pytest.mark.parametrize("lip", [0.01, 1.0, 120.0])
def test_default_step_lies_outside_the_feasible_region(lip):
    """The figures the README quotes: under eta_n = STEP_SCALE / L_n and
    gamma = 0, delta * eta depends on (t, alpha, beta, STEP_SCALE) alone."""
    d = SolverConfig(ranks=RankVector((2,)))
    rep = feasibility_check(d.t, STEP_SCALE / lip, lip, 0.0, d.alpha0, d.beta0)
    assert (d.t, d.alpha0, d.beta0, STEP_SCALE) == (3, 0.3, 0.8, 0.005)
    assert not rep.feasible and rep.eta_max == 0.0
    assert rep.delta * STEP_SCALE / lip == pytest.approx(-2.2566, abs=1e-9)
    # at t = 3 the numerator 1 - 17 alpha of eta_max vanishes at alpha = 1/17
    assert feasibility_check(3, 1.0, lip, 0.0, 1 / 17 + 1e-9, 0.8).eta_max == 0.0
    assert feasibility_check(3, 1.0, lip, 0.0, 1 / 17 - 1e-9, 0.8).eta_max > 0.0
    # alpha0 = 0.05 admits at most 0.15 / 82.64 = 0.00182 / L, below STEP_SCALE
    c_max = feasibility_check(3, 1.0, lip, 0.0, 0.05, 0.8).eta_max * lip
    assert c_max == pytest.approx(0.15 / 82.64, rel=1e-12)
    assert round(c_max, 5) == 0.00182 < STEP_SCALE


def test_saga_recovers_planted_factorization():
    """Median relative residual over seeds, robust to the occasional run
    that lands in a worse local point."""
    t, truth = generate((8, 8, 8), RankVector((2, 2)), snr_db=math.inf, seed=13)
    rels = []
    for seed in range(3):
        cfg = SolverConfig(ranks=truth.ranks, estimator="saga", epochs=300, seed=seed)
        _, trace = run(cfg, t)
        rels.append(math.sqrt(2.0 * t.size * trace.f[-1]) / t.norm())
    assert sorted(rels)[1] < 0.05
