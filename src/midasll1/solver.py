"""Multi-step inertial doubly stochastic solver plus deterministic baselines.

One iteration picks a mode (uniformly at random or cyclically), samples a
fiber batch, forms two extrapolated points from the mode's recent iterates
(one for the gradient evaluation, one as the proximal anchor), takes a
stochastic proximal gradient step on that mode and leaves the others
untouched.  An epoch is sum_n ceil(J_n / B_n) iterations, i.e. one expected
pass over each mode's fibers.  The default step of mode n is STEP_SCALE / L_n,
refreshed at each epoch start, so it carries no units of the data.

The deterministic proximal baseline (PALM) is a configuration of the same
loop: inertial depth 0, full fiber batches, cyclic modes and per-mode 1/L
steps.  The multiplicative-update baseline for nonnegative data keeps its
own loop, since its update is not a proximal step.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    ESTIMATOR_KINDS,
    SagaState,
    SarahState,
    batch_gradient,
    largest_divisor_at_most,
)
from .model import LL1Factors, RankVector, build_H, lipschitz_bound, objective
from .prox import NONNEG, Regularizer, prox
from .tensor import DenseTensor3, row_count, unfold


class SolverAbort(RuntimeError):
    """Raised when an update produces non-finite entries, when the
    reconstruction of finite iterates overflows, or when a step c/L_n cannot
    be formed because the mode's Lipschitz bound is zero or overflows."""

    def __init__(self, iteration: int, mode: int, reason: str | None = None):
        super().__init__(
            reason
            or f"non-finite factor entries at iteration {iteration}, mode {mode}; "
            "the (eta, alpha, beta) configuration is likely infeasible"
        )
        self.iteration = iteration
        self.mode = mode


# the default step on mode n is STEP_SCALE / L_n, with L_n = lipschitz_bound
# at the iterate that starts the epoch; chosen on held-out instances
STEP_SCALE = 0.005


def inertial_coefficient(scale: float, k: int) -> float:
    """scale * (k-1)/(k+2); converges to `scale` as k grows.

    Differences this deep in the history are still zero-padded copies of the
    start point, so the value before step 1 is irrelevant and taken as 0.
    """
    if k < 1:
        return 0.0
    return scale * (k - 1) / (k + 2)


@dataclass
class SolverConfig:
    ranks: RankVector
    estimator: str = "saga"
    t: int = 3
    alpha0: float = 0.3  # prox-anchor coefficient inertial_coefficient(alpha0, k)
    beta0: float = 0.8  # gradient-point coefficient inertial_coefficient(beta0, k)
    eta: float | None = None  # constant step; None -> STEP_SCALE / L_n per mode and epoch
    step_rule: str = "schedule"  # or "inverse_lipschitz"
    B: int = 0  # 0 -> 2 * max L_r
    epochs: int = 200
    seed: int = 0
    mode_policy: str = "uniform"  # or "cyclic"
    reg: Regularizer = NONNEG  # h, applied to each factor
    init: LL1Factors | None = None  # None -> uniform draw from the "init" stream
    sarah_q: int = 0  # 0 -> one epoch's worth of mode-n updates
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.ranks, RankVector):
            raise ValueError(f"ranks must be a RankVector, got {self.ranks!r}")
        if self.init is not None and not (
            isinstance(self.init, LL1Factors) and self.init.ranks == self.ranks
        ):
            raise ValueError(f"init must be None or an LL1Factors of ranks {self.ranks.L}")
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
        if not (math.isfinite(self.alpha0) and math.isfinite(self.beta0)):
            raise ValueError(f"alpha0 and beta0 must be finite, got {self.alpha0}, {self.beta0}")
        if self.B < 0 or self.sarah_q < 0:
            raise ValueError("B and sarah_q must be >= 0")

    def to_solver_config(self) -> "SolverConfig":
        """This config.  The benchmark (`perfbench/workloads.py`) calls
        `parse_config(text).to_solver_config()` and is held fixed so that its
        runs stay comparable across changes, so the name stays."""
        return self

    def batch_size(self) -> int:
        return self.B if self.B > 0 else 2 * max(self.ranks.L)


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
    if config.init is not None:
        return config.init.copy()
    return random_factors(dims, config.ranks, rng)


def extrapolate(base: np.ndarray, steps, coeffs) -> np.ndarray:
    """A^k + sum_i coeffs[i-1] * (A^{k+1-i} - A^{k-i}) for `base` = A^k and
    `steps` the mode's stored differences A^{j+1} - A^j, newest first; lags
    beyond the stored steps and zero coefficients add nothing.  Returns
    `base` itself when nothing is added."""
    out = None
    for c, d in zip(coeffs, steps):
        if c == 0.0:
            continue
        if out is None:
            out = base + c * d
        else:
            out += c * d
    return base if out is None else out


def effective_batches(config: SolverConfig, dims) -> dict[int, int]:
    """Per-mode batch size: clamped to J_n, and for SAGA reduced to the
    largest divisor of J_n so that fixed disjoint bins tile the fibers."""
    b = config.batch_size()
    out = {}
    for n in (1, 2, 3):
        jn = row_count(dims, n)
        bn = min(b, jn)
        if config.estimator == "saga":
            bn = largest_divisor_at_most(jn, bn)
        out[n] = bn
    return out


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
    estimator_state)` is invoked after each epoch, mainly for probing.
    Identical (config, tensor) inputs give bitwise-identical results.

    Inputs are checked here, once; the loop then works on trusted values:
    points are built with `LL1Factors.replaced` (the column-repeated A3 is
    recomputed only after a mode-3 update), extrapolation reuses the stored
    steps A^{j+1} - A^j, and an epoch's modes and SAGA bins are drawn in one
    call each (the same values as one draw per step).

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
    if factors.dims != dims:
        raise ValueError(f"init factor dims {factors.dims} do not match tensor {dims}")
    batches = effective_batches(config, dims)
    jn = {n: row_count(dims, n) for n in (1, 2, 3)}
    iters_per_mode = {n: math.ceil(jn[n] / batches[n]) for n in (1, 2, 3)}
    iters_per_epoch = sum(iters_per_mode.values())
    estimator = config.estimator
    sarah = estimator == "sarah"

    state = None
    if estimator == "saga":
        state = SagaState.warm_start(factors, tensor, batches)
        n_bins = np.array([0] + [state.n_bins(n) for n in (1, 2, 3)])
    elif sarah:  # sarah_q = 0: one epoch's worth of mode-n updates
        state = SarahState(q={n: config.sarah_q or iters_per_mode[n] for n in (1, 2, 3)})

    # the last t steps A^{j+1} - A^j of each mode, newest first
    steps = {n: deque(maxlen=config.t) for n in (1, 2, 3)}
    lipschitz_steps = config.step_rule == "inverse_lipschitz"
    scaled_steps = config.eta is None and not lipschitz_steps
    mode_eta = [config.eta] * 4  # the step of mode n is mode_eta[n]

    trace = RunTrace()
    rng_mode, rng_fiber = streams["mode"], streams["fiber"]
    k = 0
    start = clock()
    for epoch in range(config.epochs):
        if scaled_steps:
            for n in (1, 2, 3):
                mode_eta[n] = STEP_SCALE / _lipschitz(factors, k, n)
        epoch_eta = [None] * 4
        if config.mode_policy == "cyclic":
            modes = [1 + (k + i) % 3 for i in range(iters_per_epoch)]
        else:
            modes = (1 + rng_mode.integers(3, size=iters_per_epoch)).tolist()
        if estimator == "saga":
            bin_ids = _draw_bins(n_bins[modes], rng_fiber)
        # inertial coefficients of the epoch: step k uses lag j's at k + 1 - j,
        # so step i's lags 1..t are entries i + t - 1 down to i
        ks = range(k + 1 - config.t, k + iters_per_epoch)
        coef_a = [inertial_coefficient(config.alpha0, m) for m in ks]
        coef_b = [inertial_coefficient(config.beta0, m) for m in ks]
        for i, n in enumerate(modes):
            base = factors.factor(n)
            y_anchor = extrapolate(base, steps[n], coef_a[i:i + config.t][::-1])
            u_eval = extrapolate(base, steps[n], coef_b[i:i + config.t][::-1])

            # the gradient point is `factors` with A_n = u_eval; its H_n, Gram
            # and L_n come from the other factors, so they are those of `factors`
            eta = 1.0 / _lipschitz(factors, k, n) if lipschitz_steps else mode_eta[n]
            epoch_eta[n] = eta

            if estimator == "saga":
                g = state.estimate(factors, tensor, n, bin_ids[i], u_eval)
            else:
                idx = (None if batches[n] == jn[n]
                       else rng_fiber.choice(jn[n], size=batches[n], replace=False))
                g = (state.estimate if sarah else batch_gradient)(factors, tensor, n, idx, u_eval)

            a_new = prox(config.reg, y_anchor - eta * g, eta)
            d = a_new - base
            # a non-finite entry of a_new makes the sum non-finite, so only then look
            if not math.isfinite(float(d.sum())) and not np.isfinite(a_new).all():
                raise SolverAbort(k, n)
            factors = factors.replaced(n, a_new)
            steps[n].appendleft(d)
            k += 1
        # the trace reads the norm of the epoch's last step only
        last_step_norm = math.sqrt(float((d * d).sum()))

        try:
            obj = objective(factors, tensor, config.reg)
        except ValueError as exc:  # the dims match, so the reconstruction overflowed
            raise SolverAbort(k - 1, n, f"{exc} after iteration {k - 1} (mode {n}); the "
                              "(eta, alpha, beta) configuration is likely infeasible") from None
        counts = (modes.count(1), modes.count(2), modes.count(3))
        trace.append(epoch + 1, k, obj.phi, obj.f, clock() - start, last_step_norm, counts,
                     epoch_eta[1:])
        if callback is not None:
            callback(epoch + 1, factors, state)
        if obj.phi < config.abs_tol:
            break
    return factors, trace


def _draw_bins(n_bins: np.ndarray, rng: np.random.Generator) -> list[int]:
    """A SAGA bin per step, given each step's bin count: one draw of
    `integers(n)` for each step with n > 1 (0 otherwise), made in one call."""
    ids = np.zeros(n_bins.size, dtype=np.intp)
    many = n_bins > 1
    if many.any():
        ids[many] = rng.integers(n_bins[many])
    return ids.tolist()


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
    1/L steps; `config.epochs` counts sweeps over the three modes.  The
    objective is monotonically nonincreasing; a violation beyond 1e-10
    raises, since it indicates a broken gradient or Lipschitz bound.
    """
    start = init_factors(config, tensor.dims, rng_streams(config.seed)["init"])
    prev_phi = objective(start, tensor, config.reg).phi
    palm = replace(config, estimator="sgd", t=0, B=tensor.size, mode_policy="cyclic",
                   step_rule="inverse_lipschitz", init=start)
    factors, trace = run(palm, tensor, clock=clock)
    for sweep, phi in enumerate(trace.phi):
        if phi > prev_phi + 1e-10:
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
    unfolds = {n: unfold(tensor, n) for n in (1, 2, 3)}
    trace = RunTrace()
    start = clock()
    k = 0
    for it in range(config.epochs):
        last_step_norm = 0.0
        for n in (1, 2, 3):
            h = build_H(factors, n)
            a = factors.factor(n)
            num = unfolds[n].T @ h
            den = a @ (h.T @ h) + MU_EPS
            a_new = a * (num / den)
            last_step_norm = float(np.linalg.norm(a_new - a))
            factors = factors.with_factor(n, a_new)
            k += 1
        obj = objective(factors, tensor, config.reg)
        trace.append(it + 1, k, obj.phi, obj.f, clock() - start, last_step_norm, (1, 1, 1),
                     (None, None, None))
        if obj.phi < config.abs_tol:
            break
    return factors, trace
