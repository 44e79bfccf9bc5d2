"""Multi-step inertial doubly stochastic solver plus deterministic baselines.

One iteration picks a mode (uniformly at random or cyclically), samples a
fiber batch, forms two extrapolated points from the mode's recent iterates
(one for the gradient evaluation, one as the proximal anchor), takes a
stochastic proximal gradient step on that mode and leaves the others
untouched.  An epoch, sum_n ceil(J_n / B) iterations, is one expected pass
over each mode's fibers.  The default step of mode n is STEP_SCALE / L_n,
refreshed at each epoch start, so it carries no units of the data.

The deterministic proximal baseline (PALM) is a configuration of the same
loop: inertial depth 0, full fiber batches, cyclic modes and per-mode 1/L
steps.  The multiplicative-update baseline for nonnegative data keeps its
own loop, since its update is not a proximal step.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import ESTIMATOR_KINDS, SagaState, SarahState, SgdState
from .model import (LL1Factors, RankVector, checked_int, gram_H, lipschitz_bound, mttkrp,
                    objective, slab_visit)
from .prox import NONNEG, Regularizer, prox
from .tensor import DenseTensor3


class SolverAbort(RuntimeError):
    """Raised when an update produces non-finite entries, when the
    reconstruction of finite iterates overflows, or when a step c/L_n cannot
    be formed because the mode's Lipschitz bound is zero or overflows."""

    def __init__(self, iteration: int, mode: int, reason: str | None = None):
        super().__init__(
            reason
            or f"non-finite factor entries at iteration {iteration}, mode {mode}; "
            "the (t, eta, alpha, beta) configuration is likely infeasible"
        )
        self.iteration = iteration
        self.mode = mode


# the default step on mode n is STEP_SCALE / L_n, with L_n = lipschitz_bound
# at the iterate that starts the epoch; chosen on held-out instances
STEP_SCALE = 0.005


@dataclass
class SolverConfig:
    ranks: RankVector
    estimator: str = "saga"
    t: int = 3
    alpha0: float = 0.3  # scale of the prox anchor's inertial weights
    beta0: float = 0.8  # scale of the gradient point's inertial weights
    eta: float | None = None  # constant step; None -> STEP_SCALE / L_n per mode and epoch
    step_rule: str = "schedule"  # or "inverse_lipschitz" (1/L steps; eta must be None)
    B: int = 0  # fibers per bin, at most; 0 -> 2 * max L_r
    epochs: int = 200
    seed: int = 0
    mode_policy: str = "uniform"  # or "cyclic"
    reg: Regularizer = NONNEG  # h, applied to each factor
    init: LL1Factors | None = None  # None -> uniform draw from the "init" stream
    sarah_q: int = 0  # 0 -> n_bins of mode n, one epoch's worth of its updates
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.ranks, RankVector):
            raise ValueError(f"ranks must be a RankVector, got {self.ranks!r}")
        if self.init is not None and not (
            isinstance(self.init, LL1Factors) and self.init.ranks == self.ranks
        ):
            raise ValueError(f"init must be None or an LL1Factors of ranks {self.ranks.L}")
        if not isinstance(self.reg, Regularizer):
            raise ValueError(f"reg must be a Regularizer, got {self.reg!r}")
        for name in ("t", "B", "epochs", "seed", "sarah_q"):
            setattr(self, name, checked_int(getattr(self, name), f"{name} must be an integer"))
        for name in ("alpha0", "beta0", "eta", "abs_tol"):
            v = getattr(self, name)
            if v is None and name == "eta":
                continue
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or name == "abs_tol" and math.isnan(v)):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            setattr(self, name, float(v))  # as `checked_int` stores an int
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.t < 0:
            raise ValueError("inertial depth t must be >= 0")
        if self.mode_policy not in ("uniform", "cyclic"):
            raise ValueError(f"unknown mode policy {self.mode_policy!r}")
        if self.step_rule not in ("schedule", "inverse_lipschitz"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be none or finite and > 0, got {self.eta}")
        if self.eta is not None and self.step_rule == "inverse_lipschitz":
            raise ValueError("eta must be None when step_rule is 'inverse_lipschitz' "
                             f"(1/L steps), got eta = {self.eta}")
        if not (math.isfinite(self.alpha0) and math.isfinite(self.beta0)):
            raise ValueError(f"alpha0 and beta0 must be finite, got {self.alpha0}, {self.beta0}")
        if self.B < 0 or self.sarah_q < 0:
            raise ValueError("B and sarah_q must be >= 0")

    def to_solver_config(self) -> "SolverConfig":
        """This config.  The benchmark (`perfbench/workloads.py`) calls
        `parse_config(text).to_solver_config()` and is held fixed so that its
        runs stay comparable across changes, so the name stays."""
        return self


def epoch_coefficients(alpha0: float, beta0: float, t: int, k: int, steps: int) -> np.ndarray:
    """The extrapolation weights of steps k, ..., k + steps - 1 as a
    (steps, 2, t + 1) array: [i, :, 0] is 1, the weight of A_n, and
    [i, 0, j] and [i, 1, j] the weights of lag j at step k + i, the schedules
    alpha0 (m-1)/(m+2) and beta0 (m-1)/(m+2) at m = k + i + 1 - j.  Lags
    before step 1 are still zero steps, so their weight is irrelevant and
    taken as 0.  At t = 0 the table is all ones and no schedule is evaluated."""
    if not t:
        return np.ones((steps, 2, 1))
    ks = range(k + 1 - t, k + steps)
    coef_a = [alpha0 * (m - 1) / (m + 2) if m >= 1 else 0.0 for m in ks]
    coef_b = [beta0 * (m - 1) / (m + 2) if m >= 1 else 0.0 for m in ks]
    lags = np.arange(steps)[:, None] + t - np.arange(t + 1)
    lags[:, 0] = len(coef_a)  # the 1.0 appended to each schedule
    sched = np.array([[*coef_a, 1.0], [*coef_b, 1.0]])
    return sched[:, lags].transpose(1, 0, 2).copy()


@dataclass
class RunTrace:
    epoch: list[int] = field(default_factory=list)
    iteration: list[int] = field(default_factory=list)
    phi: list[float] = field(default_factory=list)
    f: list[float] = field(default_factory=list)
    elapsed_s: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    mode_counts: list[tuple[int, int, int]] = field(default_factory=list)
    # the last step taken on each mode in the epoch; None for a mode not updated
    step_sizes: list[tuple[float | None, float | None, float | None]] = field(
        default_factory=list
    )

    def append(self, epoch, iteration, phi, f, elapsed, step_norm, counts, etas):
        self.epoch.append(epoch)
        self.iteration.append(iteration)
        self.phi.append(phi)
        self.f.append(f)
        self.elapsed_s.append(elapsed)
        self.step_norm.append(step_norm)
        self.mode_counts.append(tuple(counts))
        self.step_sizes.append(tuple(etas))

    def __len__(self):
        return len(self.epoch)


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Counter-based (Philox) streams split by purpose, so one consumer's
    draws never shift another's."""
    names = ("init", "mode", "fiber", "noise")
    return {
        name: np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        for i, name in enumerate(names)
    }


def random_factors(dims, ranks: RankVector, rng: np.random.Generator) -> LL1Factors:
    """Uniform(0,1) A1, A2 and A3, drawn from `rng` in that order."""
    return LL1Factors(
        rng.random((dims[0], ranks.total)),
        rng.random((dims[1], ranks.total)),
        rng.random((dims[2], ranks.R)),
        ranks,
    )


def init_factors(config: SolverConfig, dims, rng: np.random.Generator) -> LL1Factors:
    """A copy of `config.init`, which must have the tensor's `dims`, or a
    random start from `rng`."""
    if config.init is not None:
        if config.init.dims != tuple(dims):
            raise ValueError(f"init factor dims {config.init.dims} do not match tensor {dims}")
        return config.init.copy()
    return random_factors(dims, config.ranks, rng)


class StepWindow:
    """A mode's point A_n and its last t steps A^{j+1} - A^j, newest first
    (zero rows for steps not yet taken), as the t + 1 rows of `rows`, each of
    A_n.size entries: the operand of `extrapolate`'s product.  `point` is
    A_n's row in A_n's shape, `ahead` the row above the window, which takes
    the next point.

    `rows` is a window on a buffer of 2(t + 2) rows.  `push` writes the new
    step over A_n's row, so the window moves up one row and no row is
    shifted; a window at the top is copied to the buffer's end with the row
    below it (the newest step, outside the window at t = 0), once every
    t + 1 steps.  The views of each window position are made once.  At
    t = 0 the window is the one row [A_n], and PALM's step is this step too."""

    __slots__ = ("ahead", "flat", "p", "point", "rows", "views", "width")

    def __init__(self, a: np.ndarray, t: int):
        self.width = t + 1
        self.flat = np.zeros((2 * (t + 2), a.size))
        grid = self.flat.reshape(len(self.flat), *a.shape)  # the rows in A_n's shape
        # at first row p: the point, the row ahead, the window and the step below
        self.views = [None, *((grid[p], grid[p - 1], self.flat[p:p + t + 1], self.flat[p + 1])
                              for p in range(1, t + 3))]
        self.p = t + 2
        self.point, self.ahead, self.rows, _ = self.views[self.p]
        self.point[...] = a

    def push(self) -> np.ndarray:
        """Make `ahead`, which holds the new point, the point and its
        difference from A_n the newest step, which is returned as a flat
        view."""
        np.subtract(self.ahead, self.point, out=self.point)
        p = self.p - 1
        if not p:  # at the top: move the window and the new step to the end
            p = self.width + 1
            self.flat[p:] = self.flat[:p]
        self.p = p
        self.point, self.ahead, self.rows, d = self.views[p]
        return d


def extrapolate(rows: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The prox anchor and the gradient point, coeffs @ rows, written into
    `out` (a C-contiguous (2, A^k.size) float64 array), which is returned.

    `rows` is a `StepWindow`'s t + 1 rows [A^k; d_1; ...; d_t]; `coeffs` are
    the (2, t + 1) weights [1, c_1, ..., c_t] of each point.  A^k enters the
    product with weight 1, so its sum with the lags may round unlike adding
    them one by one, but zero steps give A^k bit for bit (a -0.0 entry as
    +0.0); at t = 0 both points are 1 * A^k."""
    return coeffs.dot(rows, out=out)


@dataclass(frozen=True)
class FeasibilityReport:
    delta: float
    tail_margin: float
    feasible: bool
    eta_max: float
    b_lower: float
    abar: float


def feasibility_check(
    t: int,
    eta_bar: float,
    lip: float,
    gamma: float,
    alpha_limit: float,
    beta_limit: float,
) -> FeasibilityReport:
    """Step-size feasibility for the paper's descent argument.

    Uses the limiting values of the inertial schedules:
        b = (1 - t*alpha - 2*L*eta - gamma*eta) / (2*eta)
        a_i = 3*L*t*beta^2/2 + gamma/2 + alpha/(2*eta)     (i = 1..t+1)
        delta = b - sum_{j=1}^{t+1} (j+1) a_j
        tail  = (t+2) a_{t+1} - gamma/2
    Both must be positive (the tail condition is vacuous when gamma = 0).
    With alpha = beta = 0 the delta condition reduces to
    eta < 2 / (4L + gamma*(t+2)*(t+3)).
    """
    if eta_bar <= 0:
        raise ValueError("eta must be positive")
    a = 1.5 * lip * t * beta_limit * beta_limit + 0.5 * gamma + alpha_limit / (2.0 * eta_bar)
    s = (t + 2) * (t + 3) // 2 - 1  # sum_{j=1}^{t+1} (j+1)
    b_lower = (1.0 - t * alpha_limit - 2.0 * lip * eta_bar - gamma * eta_bar) / (
        2.0 * eta_bar
    )
    delta = b_lower - s * a
    tail = (t + 2) * a - 0.5 * gamma
    feasible = delta > 0 and (gamma == 0.0 or tail > 0)
    num = 1.0 - t * alpha_limit - s * alpha_limit
    den = 2.0 * lip + gamma + s * (3.0 * lip * t * beta_limit * beta_limit + gamma)
    eta_max = num / den if num > 0 and den > 0 else 0.0
    return FeasibilityReport(delta, tail, feasible, eta_max, b_lower, a)


def run(
    config: SolverConfig,
    tensor: DenseTensor3,
    callback=None,
    clock=None,
) -> tuple[LL1Factors, RunTrace]:
    """Run the inertial doubly stochastic solver for the configured epochs.

    Stops early once phi drops below `abs_tol`.  `callback(epoch, factors,
    estimator)` is invoked after each epoch, mainly for probing, with the
    run's `SgdState`, `SagaState` or `SarahState`, under the caller's numpy
    error settings; the run's own arithmetic does not warn on overflow or
    invalid values, which end it with `SolverAbort` instead.
    Identical (config, tensor) inputs give bitwise-identical results.  An
    epoch takes `state.n_bins(n)` = ceil(J_n / B) steps on mode n, with B =
    `config.B`, or 2 * max L_r at 0, whether or not B divides J_n.

    Inputs are checked here, once; the loop then works on trusted values:
    an epoch's modes, picks (the estimator's `draw`: a bin, or None for
    every fiber) and inertial coefficients are drawn or built once each
    (the same values as one draw per step).  Every step is one proximal
    step: one product over the mode's `StepWindow` writes both extrapolated
    points into the mode's product array, `estimate(point, tensor, n, pick,
    eta, u_eval)` writes eta times the estimate at the second over it, and
    the step from the first goes into the window's row ahead; no step
    branches on the estimator.  A sampled step (a bin, at a given or
    scheduled step) reads the gradient point as the windows' factor arrays.
    A step that reads a point (a full batch or a 1/L step) builds it with
    `LL1Factors.replaced` from the last point built, a copy of each factor
    that sampled steps moved since and a copy of its A_n, and from it the
    new iterate, so that the Grams and the tensor's contractions, kept
    under the arrays they read, carry over.  The epoch's L_n, objective and
    callback read the point of the windows' iterates, constructed after
    sampled steps.  When every batch is full (PALM, and SGD or SARAH at B >= J_n), a
    mode-3 step takes the full gradient and the proximal step run by run
    in `slab_visit`, into a new A3, which the visit also contracts into the
    Y that the next mode-1 and mode-2 steps read.  The point returned is
    constructed anew: it owns its read-only factor arrays and keeps nothing
    else.

    Steps: a given `eta` is used on every mode and step.  With `eta` None,
    mode n steps STEP_SCALE / L_n, where L_n = `lipschitz_bound` at the
    iterate that starts the epoch (evaluated inside the loop, after the
    first clock call).  `step_rule="inverse_lipschitz"` takes 1/L at each
    step's gradient point instead and never evaluates the per-epoch bounds.
    A zero or infinite bound raises `SolverAbort`, as do non-finite iterates
    and, at an epoch's end, finite iterates whose reconstruction overflows.
    """
    clock = clock or time.perf_counter
    dims = tensor.dims
    streams = rng_streams(config.seed)
    factors = init_factors(config, dims, streams["init"])
    batches = dict.fromkeys((1, 2, 3), config.B or 2 * max(config.ranks.L))
    if config.estimator == "saga":
        state = SagaState.warm_start(factors, tensor, batches)
    elif config.estimator == "sarah":
        state = SarahState(dims, batches, config.ranks, dict.fromkeys((1, 2, 3), config.sarah_q))
    else:
        state = SgdState(dims, batches, config.ranks)
    estimate = state.estimate
    iters_per_epoch = sum(state.n_bins(n) for n in (1, 2, 3))

    # each mode's point and last t steps, and the array its steps' two
    # extrapolated points go to; allocated after the SAGA table
    depth = config.t
    windows = [None, *(StepWindow(factors.factor(n), depth) for n in (1, 2, 3))]
    products = [None, *(np.empty((2, factors.factor(n).size)) for n in (1, 2, 3))]
    halves = [None, *(tuple(products[n].reshape(2, *factors.factor(n).shape)) for n in (1, 2, 3))]
    w1, w2, w3 = windows[1:]
    lipschitz_steps = config.step_rule == "inverse_lipschitz"
    scaled_steps = config.eta is None and not lipschitz_steps
    mode_eta = [config.eta] * 4  # the step of mode n is mode_eta[n]
    moved = set()  # the modes of sampled steps since `factors` was built

    trace = RunTrace()
    rng_mode, rng_fiber = streams["mode"], streams["fiber"]
    k = 0
    start = clock()
    # non-finite factors, bounds and reconstructions end the run with a
    # SolverAbort, so the overflow on the way to them is not reported; the
    # callback runs under the caller's settings
    caller_errstate = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if scaled_steps:
                for n in (1, 2, 3):
                    mode_eta[n] = STEP_SCALE / _lipschitz(factors, k, n)
            epoch_eta = [None] * 4
            if config.mode_policy == "cyclic":
                modes = [1 + (k + i) % 3 for i in range(iters_per_epoch)]
            else:
                modes = (1 + rng_mode.integers(3, size=iters_per_epoch)).tolist()
            # each step's bin (None: every fiber), in step order
            picks = state.draw(modes, rng_fiber)
            every_full = not state.fibers  # no mode has bins, so each pick is None
            coefs = epoch_coefficients(config.alpha0, config.beta0, depth, k, iters_per_epoch)
            for i, (n, pick) in enumerate(zip(modes, picks)):
                window = windows[n]
                extrapolate(window.rows, coefs[i], products[n])
                y_anchor, u_eval = halves[n]
                if pick is None or lipschitz_steps:
                    # a step that reads a point (a full batch or 1/L) takes it
                    # from `factors`, with copies of the factors moved since
                    # and an A_n of its own: the tensor keeps its
                    # contractions under the arrays they read
                    for m in moved - {n}:
                        factors = factors.replaced(m, windows[m].point.copy())
                    moved.clear()
                    point = factors.replaced(n, u_eval.copy())
                else:
                    point = [w1.point, w2.point, w3.point]
                    point[n - 1] = u_eval
                    moved.add(n)
                eta = 1.0 / _lipschitz(point, k, n) if lipschitz_steps else mode_eta[n]
                a_new = None
                if n == 3 and every_full:
                    # (u G3 - M3) / N and the step on each run of rows, into a
                    # new A3, which the visit then contracts into the Y of the
                    # next steps
                    ug = point.A3.dot(gram_H(point, 3))
                    a_new = np.empty_like(u_eval)

                    def step_rows(rows, m3):
                        g = ug[rows]
                        g -= m3
                        g /= tensor.size
                        anchor = y_anchor[rows]
                        anchor -= np.multiply(g, eta, out=g)
                        prox(config.reg, anchor, eta, out=a_new[rows])
                    slab_visit(point, tensor, a_new, step_rows)
                    window.ahead[...] = a_new
                else:
                    # eta times the estimate, into u_eval, which is read no more
                    y_anchor -= estimate(point, tensor, n, pick, eta, u_eval)
                    prox(config.reg, y_anchor, eta, out=window.ahead)
                d = window.push()
                if not moved:
                    # from `point`, so that the Gram its step computed carries over
                    factors = point.replaced(n, window.point.copy() if a_new is None else a_new)
                epoch_eta[n] = eta
                # a non-finite entry of the new point makes d.d non-finite, so only then look
                if not math.isfinite(d.dot(d)) and not np.isfinite(window.point).all():
                    raise SolverAbort(k, n)
                k += 1
            # the trace reads the norm of the epoch's last step only
            last_step_norm = math.sqrt(float((d * d).sum()))
            if moved:
                factors = _window_point(windows, config.ranks)
                moved.clear()
            try:
                obj = objective(factors, tensor, config.reg)
            except ValueError as exc:  # the dims match, so the reconstruction overflowed
                raise SolverAbort(k - 1, n, f"{exc} after iteration {k - 1} (mode {n}); the "
                                  "(t, eta, alpha, beta) configuration is likely infeasible") from None
            counts = (modes.count(1), modes.count(2), modes.count(3))
            trace.append(epoch + 1, k, obj.phi, obj.f, clock() - start, last_step_norm, counts,
                         epoch_eta[1:])
            if callback is not None:
                with np.errstate(**caller_errstate):
                    callback(epoch + 1, factors, state)
            if obj.phi < config.abs_tol:
                break
    return factors.copy(), trace


def _window_point(windows: list, ranks: RankVector) -> LL1Factors:
    """The point of the windows' iterates, constructed: its arrays are copies."""
    return LL1Factors(*(w.point for w in windows[1:]), ranks)


def _lipschitz(factors: LL1Factors, k: int, n: int) -> float:
    """`lipschitz_bound(factors, n)`; `SolverAbort` at iteration k if zero or inf."""
    lip = lipschitz_bound(factors, n)
    if 0.0 < lip < math.inf:
        return lip
    if lip == math.inf:
        raise SolverAbort(k, n, f"Lipschitz bound of mode {n} overflows at iteration {k}: "
                          "the factors diverged")
    zero = [f"A{m}" for m in (1, 2, 3) if m != n and not factors.factor(m).any()]
    raise SolverAbort(k, n, f"Lipschitz bound of mode {n} is zero at iteration {k}: "
                      f"{' and '.join(zero) or 'a factor block'} collapsed to zero, "
                      "so no step proportional to 1/L exists")


def palm_baseline(
    config: SolverConfig,
    tensor: DenseTensor3,
    clock=None,
) -> tuple[LL1Factors, RunTrace]:
    """Cyclic full-gradient proximal scheme with per-mode 1/L step sizes (PALM).

    This is `run` with inertial depth 0, full fiber batches, cyclic modes and
    1/L steps (any `config.eta` is dropped); `config.epochs` counts sweeps
    over the three modes.  The objective is monotonically nonincreasing; a
    violation beyond 1e-10 * max(1, ||X||^2 / (2 * I1*I2*I3)) raises, since it
    indicates a broken gradient or Lipschitz bound.  The allowance grows with
    the data because f's rounding error is a few ulps of ||X||^2 / (2N).
    """
    start = init_factors(config, tensor.dims, rng_streams(config.seed)["init"])
    prev_phi = objective(start, tensor, config.reg).phi
    palm = replace(config, estimator="sgd", t=0, B=tensor.size, mode_policy="cyclic",
                   eta=None, step_rule="inverse_lipschitz", init=start)
    factors, trace = run(palm, tensor, clock=clock)
    tol = 1e-10 * max(1.0, tensor.sqnorm / (2.0 * tensor.size))
    for sweep, phi in enumerate(trace.phi):
        if phi > prev_phi + tol:
            raise RuntimeError(f"objective increased at sweep {sweep}: {prev_phi} -> {phi}")
        prev_phi = phi
    return factors, trace


MU_EPS = 1e-12  # keeps the denominator of `als_mu_baseline`'s update positive


def als_mu_baseline(
    config: SolverConfig,
    tensor: DenseTensor3,
    clock=None,
) -> tuple[LL1Factors, RunTrace]:
    """Cyclic multiplicative updates A_n <- A_n * (X_(n)^T H_n) / (A_n H^T H + MU_EPS).

    Requires elementwise nonnegative data; factors stay nonnegative, and a
    strictly positive start stays strictly positive.
    """
    clock = clock or time.perf_counter
    if tensor.array.min() < 0:
        raise ValueError("multiplicative updates require a nonnegative tensor")
    streams = rng_streams(config.seed)
    factors = init_factors(config, tensor.dims, streams["init"])
    for n in (1, 2, 3):
        if factors.factor(n).min() < 0:
            raise ValueError("multiplicative updates require a nonnegative init")
    trace = RunTrace()
    start = clock()
    k = 0
    for it in range(config.epochs):
        last_step_norm = 0.0
        for n in (1, 2, 3):
            a = factors.factor(n)
            den = a @ gram_H(factors, n) + MU_EPS
            if n == 3:  # run by run, contracting the next sweep's Y as it goes
                a_new = np.empty_like(a)

                def update_rows(rows, num):
                    np.multiply(a[rows], num / den[rows], out=a_new[rows])
                slab_visit(factors, tensor, a_new, update_rows)
            else:
                a_new = a * (mttkrp(factors, tensor, n) / den)
            last_step_norm = float(np.linalg.norm(a_new - a))
            factors = factors.replaced(n, a_new)
            k += 1
        obj = objective(factors, tensor, config.reg)
        trace.append(it + 1, k, obj.phi, obj.f, clock() - start, last_step_norm, (1, 1, 1),
                     (None, None, None))
        if obj.phi < config.abs_tol:
            break
    return factors.copy(), trace
