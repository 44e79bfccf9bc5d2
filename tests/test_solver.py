import itertools
import math

import numpy as np
import pytest

from conftest import palm_reference, run_reference
from midasll1.model import LL1Factors, RankVector, lipschitz_bound, objective, reconstruct
from midasll1.prox import NONE, NONNEG, Regularizer
from midasll1.solver import (
    STEP_SCALE,
    SolverAbort,
    SolverConfig,
    als_mu_baseline,
    effective_batches,
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


def _steps(hist):
    """The differences A^{j+1} - A^j of an oldest-to-newest history, newest first."""
    return [hist[-i] - hist[-i - 1] for i in range(1, len(hist))]


def test_extrapolate_short_history_is_base():
    h = [np.ones((2, 2))]
    out = extrapolate(h[-1], _steps(h), [0.5, 0.5, 0.5])
    assert out is h[0]


def test_extrapolate_two_point_formula():
    a0 = np.zeros((2, 2))
    a1 = np.ones((2, 2))
    out = extrapolate(a1, _steps([a0, a1]), [0.5])
    np.testing.assert_array_equal(out, 1.5 * np.ones((2, 2)))


def test_extrapolate_multi_term():
    rng = np.random.default_rng(0)
    hist = [rng.random((3, 2)) for _ in range(4)]
    coeffs = [0.3, 0.2, 0.1]
    expected = hist[-1] + sum(
        c * (hist[-i] - hist[-i - 1]) for i, c in enumerate(coeffs, start=1)
    )
    np.testing.assert_allclose(extrapolate(hist[-1], _steps(hist), coeffs), expected, atol=1e-15)


def test_extrapolate_does_not_mutate_history():
    hist = [np.zeros((2, 2)), np.ones((2, 2))]
    steps = _steps(hist)
    snap = [h.copy() for h in hist + steps]
    extrapolate(hist[-1], steps, [0.7])
    for a, b in zip(hist + steps, snap):
        np.testing.assert_array_equal(a, b)


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


def test_default_batch_size_is_twice_max_block():
    cfg = SolverConfig(ranks=RankVector((2, 3)))
    assert cfg.batch_size() == 6
    assert SolverConfig(ranks=RankVector((2, 3)), B=5).batch_size() == 5


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
    *({"estimator": est, "eta": 0.1} for est in ("sgd", "saga", "sarah")),
    *({"estimator": est, "mode_policy": "cyclic"} for est in ("sgd", "saga", "sarah")),
    *({"estimator": est, "step_rule": "inverse_lipschitz", "reg": NONE}
      for est in ("sgd", "saga", "sarah")),
    {"estimator": "saga", "reg": Regularizer("ridge", 0.01), "t": 2},
    {"estimator": "sarah", "sarah_q": 3, "B": 5},
    {"estimator": "saga", "B": 10**6},
    {"estimator": "sgd", "B": 10**6, "mode_policy": "cyclic", "t": 2},
    {"estimator": "sarah", "B": 10**6},
    # a zero inertial scale: `extrapolate` returns the iterate itself
    {"estimator": "saga", "alpha0": 0.0},
    {"estimator": "sgd", "beta0": 0.0},
    {"estimator": "sarah", "alpha0": 0.0, "beta0": 0.0},
]


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
def test_step_builds_one_point(estimator, variant, monkeypatch):
    """Every step builds one `LL1Factors`, the new iterate: the gradient
    point is passed as its new factor alone, also to SARAH, to a full batch
    and to the 1/L step."""
    calls = []
    replaced = LL1Factors.replaced

    def counting(self, mode, a):
        calls.append(mode)
        return replaced(self, mode, a)

    monkeypatch.setattr(LL1Factors, "replaced", counting)
    cfg = SolverConfig(ranks=RankVector((2, 1)), estimator=estimator, epochs=3, seed=2, **variant)
    _, trace = run(cfg, small_tensor())
    assert len(calls) == trace.iteration[-1]


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


def test_run_callback_invoked_each_epoch():
    t = small_tensor(seed=6, dims=(4, 4, 4), L=(2,))
    seen = []
    cfg = SolverConfig(ranks=RankVector((2,)), epochs=4, seed=0)
    run(cfg, t, callback=lambda e, f, s: seen.append(e))
    assert seen == [1, 2, 3, 4]


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


def test_alsmu_rejects_negative_tensor():
    cube = -np.ones((2, 2, 2))
    cfg = SolverConfig(ranks=RankVector((1,)), epochs=1)
    with pytest.raises(ValueError):
        als_mu_baseline(cfg, DenseTensor3(cube))


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
