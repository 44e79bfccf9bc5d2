"""Shared test helpers: the acceptance-criterion log and standalone solver loops."""

import itertools
import math
from collections import deque

import numpy as np

from midasll1.model import LL1Factors, _slab_runs, lipschitz_bound, objective
from midasll1.prox import penalty_value, prox
from midasll1.solver import (
    MU_EPS,
    STEP_SCALE,
    RunTrace,
    SolverAbort,
    init_factors,
    rng_streams,
)
from midasll1.tensor import DenseTensor3, khatri_rao, row_count, unfold

ACCEPTANCE_RESULTS: list[str] = []


# Reference kernels: the H matrices, gradients and objective written the
# plain way (per-block kron / Khatri-Rao and hstack, the unfolding and plain
# `@`, a validated reconstruction), so that the copy-free kernels of
# `midasll1.model` are pinned bit for bit against code they do not share.


def reference_build_H(factors, mode):
    rk = factors.ranks
    if mode in (1, 2):
        other = factors.A2 if mode == 1 else factors.A1
        return np.hstack([np.kron(factors.A3[:, r:r + 1], other[:, blk])
                          for r, blk in enumerate(rk.blocks)])
    return np.stack([khatri_rao(factors.A2[:, blk], factors.A1[:, blk]).sum(axis=1)
                     for blk in rk.blocks], axis=1)


def reference_unfolding_gradient(factors, tensor, mode):
    """((H_n A_n^T - X_(n))^T H_n) / N from the whole H_n and the whole
    unfolding: what the fiber path computes over all fibers."""
    h = reference_build_H(factors, mode)
    residual = h @ factors.factor(mode).T - unfold(tensor, mode)
    return (residual.T @ h) / tensor.size


def reference_gram(factors, mode):
    """H_n^T H_n block by block: (c_r^T c_s) (M_r^T M_s) for modes 1 and 2,
    the total of (A1_r^T A1_s) * (A2_r^T A2_s) for mode 3."""
    blocks = factors.ranks.blocks
    if mode in (1, 2):
        m = factors.A2 if mode == 1 else factors.A1
        g3, gm = factors.A3.T @ factors.A3, m.T @ m
        out = np.empty_like(gm)
        for (r, br), (s, bs) in itertools.product(enumerate(blocks), repeat=2):
            out[br, bs] = gm[br, bs] * g3[r, s]
        return out
    had = (factors.A1.T @ factors.A1) * (factors.A2.T @ factors.A2)
    return np.array([[had[br, bs].sum() for bs in blocks] for br in blocks])


def reference_mttkrp(factors, tensor, mode):
    """X_(n)^T H_n contracted through the mode-3 unfolding X3: block r is
    Y_r^T A2_r (mode 1) or Y_r A1_r (mode 2) with Y = A3^T X3^T and Y_r its
    row r as I2 x I1, and mode 3 is (S X3)^T with S the stacked, flattened
    slabs A2_r A1_r^T.  Both products are taken over the slab runs of
    `model._slab_runs`: M3's rows run by run, Y as the sum of the runs'
    products in slab order."""
    i1, i2, _ = tensor.dims
    x3 = unfold(tensor, 3)
    blocks = factors.ranks.blocks
    runs = _slab_runs(tensor.dims, factors.ranks.R)
    if mode == 3:
        s = np.stack([(factors.A2[:, blk] @ factors.A1[:, blk].T).ravel() for blk in blocks])
        return np.hstack([s @ x3[:, run] for run in runs]).T
    y = factors.A3[runs[0]].T @ x3[:, runs[0]].T
    for run in runs[1:]:
        y = y + factors.A3[run].T @ x3[:, run].T
    ys = [y[r].reshape(i2, i1) for r in range(len(blocks))]
    if mode == 1:
        return np.hstack([y_r.T @ factors.A2[:, blk] for y_r, blk in zip(ys, blocks)])
    return np.hstack([y_r @ factors.A1[:, blk] for y_r, blk in zip(ys, blocks)])


def reference_full_gradient(factors, tensor, mode):
    """(A_n gram - X_(n)^T H_n) / N from `reference_gram` and `reference_mttkrp`."""
    m = reference_mttkrp(factors, tensor, mode)
    return (factors.factor(mode) @ reference_gram(factors, mode) - m) / tensor.size


def reference_reconstruct(factors):
    i1, i2, _ = factors.dims
    rk = factors.ranks
    slabs = np.empty((i1, i2, rk.R))
    for r in range(rk.R):
        blk = rk.blocks[r]
        slabs[:, :, r] = factors.A1[:, blk] @ factors.A2[:, blk].T
    return DenseTensor3(slabs @ factors.A3.T)


def reference_objective(factors, tensor, reg):
    """(f, h, phi) at the given point."""
    resid = tensor.array - reference_reconstruct(factors).array
    f = float(np.sum(resid * resid)) / (2.0 * tensor.size)
    h = sum(penalty_value(reg, factors.factor(n)) for n in (1, 2, 3))
    return f, h, f + h


def _with_factor(factors, mode, a):
    """`factors` with A_mode = `a`, through the checked constructor, so that
    no cache of `factors` is carried over."""
    parts = [factors.A1, factors.A2, factors.A3]
    parts[mode - 1] = a
    return LL1Factors(*parts, factors.ranks)


def palm_reference(config, tensor):
    """Cyclic full-gradient proximal sweeps with per-mode 1/L steps, written
    out by hand so that the reduction of `run` to PALM is checked against
    code that does not go through `run`.

    Starts from the same point as `run` (same seed, same init stream) and
    returns the final factors plus the per-sweep phi, f and last step norm.
    Each sweep's f and phi come from `model.objective`, which
    `test_model.py` checks against `reference_objective`, so the sweeps
    are compared bit for bit.
    """
    factors = init_factors(config, tensor.dims, rng_streams(config.seed)["init"])
    phi, f, step_norm = [], [], []
    for _ in range(config.epochs):
        last = 0.0
        for n in (1, 2, 3):
            eta = 1.0 / lipschitz_bound(factors, n)
            g = reference_full_gradient(factors, tensor, n)
            a_new = prox(config.reg, factors.factor(n) - eta * g, eta)
            d = a_new - factors.factor(n)
            last = math.sqrt(float(np.sum(d * d)))
            factors = _with_factor(factors, n, a_new)
        obj = objective(factors, tensor, config.reg)
        f_val, phi_val = obj.f, obj.phi
        phi.append(phi_val)
        f.append(f_val)
        step_norm.append(last)
        if phi_val < config.abs_tol:
            break
    return factors, phi, f, step_norm


def als_mu_reference(config, tensor):
    """Cyclic multiplicative updates A_n <- A_n * (X_(n)^T H_n) / (A_n H^T H
    + MU_EPS) from the whole H_n of `reference_build_H` and the unfoldings,
    so that `als_mu_baseline`, which forms neither, is checked against code
    it does not share.  Starts from the same point and returns the final
    factors plus the per-sweep phi."""
    factors = init_factors(config, tensor.dims, rng_streams(config.seed)["init"])
    unfolds = {n: unfold(tensor, n) for n in (1, 2, 3)}
    phi = []
    for _ in range(config.epochs):
        for n in (1, 2, 3):
            h = reference_build_H(factors, n)
            a = factors.factor(n)
            a_new = a * ((unfolds[n].T @ h) / (a @ (h.T @ h) + MU_EPS))
            factors = _with_factor(factors, n, a_new)
        phi.append(reference_objective(factors, tensor, config.reg)[2])
        if phi[-1] < config.abs_tol:
            break
    return factors, phi


def _batch_gradient(factors, tensor, mode, idx, n_bins):
    """Fiber-sampled gradient ((H A_n^T - X)^T H) / (I_n * J_n / n_bins) of
    one of a mode's `n_bins` bins, from rows of the full H_n and of the
    unfolding."""
    h = reference_build_H(factors, mode)[idx]
    residual = h @ factors.factor(mode).T - unfold(tensor, mode)[idx]
    return (residual.T @ h) / (factors.dims[mode - 1] * row_count(tensor.dims, mode) / n_bins)


def _extrapolate(history, coeffs):
    """Each row of the (2, t + 1) `coeffs` times [A^k; d_1; ...; d_t]: the
    last entry of the oldest-to-newest `history` and its last t differences,
    newest first, stacked as rows with zero rows for differences not yet
    taken: one product."""
    base = history[-1]
    t = coeffs.shape[1] - 1
    if t == 0:
        return base, base
    window = np.zeros((t + 1, base.size))
    window[0] = base.ravel()
    for i in range(1, min(t, len(history) - 1) + 1):
        window[i] = (history[-i] - history[-i - 1]).ravel()
    p = coeffs @ window
    return p[0].reshape(base.shape), p[1].reshape(base.shape)


def reference_inertial_weight(scale, k):
    """The inertial schedule scale * (k-1)/(k+2) at step k, and 0 before
    step 1, where the lags are still zero steps."""
    if k < 1:
        return 0.0
    return scale * (k - 1) / (k + 2)


def run_reference(config, tensor):
    """The stochastic solver loop written out step by step, with its SAGA
    table and SARAH recursion inline, so that `run` is checked bit for bit
    against code that shares none of its loop, caches or estimator state.

    Draws from the same streams in the same order as `run`: for SGD and
    SARAH first one permutation of each mode's fibers with B < J_n, in mode
    order, split into ceil(J_n / B) consecutive bins by `np.array_split`
    (SAGA's split the fibers in order); then one mode draw per step and one
    bin draw when the mode has more than one bin. A mode without bins (SGD
    and SARAH with B >= J_n) takes the full gradient. Returns the final factors and a `RunTrace`
    without elapsed times.  Each epoch's f and phi come from
    `model.objective`, which `test_model.py` checks against
    `reference_objective`.
    """
    dims = tensor.dims
    streams = rng_streams(config.seed)
    factors = init_factors(config, dims, streams["init"])
    b = config.B if config.B > 0 else 2 * max(config.ranks.L)
    jn = {n: row_count(dims, n) for n in (1, 2, 3)}
    n_bins = {n: math.ceil(jn[n] / b) for n in (1, 2, 3)}
    iters_per_epoch = sum(n_bins.values())
    est = config.estimator
    rng_mode, rng_fiber = streams["mode"], streams["fiber"]

    if est != "saga":  # `run` draws these at its first epoch, before any bin
        bins = {n: np.array_split(rng_fiber.permutation(jn[n]), n_bins[n])
                for n in (1, 2, 3) if n_bins[n] > 1}
    else:
        bins = {n: np.array_split(np.arange(jn[n]), n_bins[n]) for n in (1, 2, 3)}
        table = {n: [_batch_gradient(factors, tensor, n, idx, n_bins[n]) for idx in bins[n]]
                 for n in (1, 2, 3)}
        mean = {n: sum(table[n][1:], start=table[n][0].copy()) / len(table[n])
                for n in (1, 2, 3)}
        since = {n: 0 for n in (1, 2, 3)}
    if est == "sarah":
        q = {n: config.sarah_q if config.sarah_q > 0 else n_bins[n] for n in (1, 2, 3)}
        v, prev, counter = {}, {}, {n: 0 for n in (1, 2, 3)}

    history = {n: deque([factors.factor(n)], maxlen=config.t + 2) for n in (1, 2, 3)}
    trace = RunTrace()
    k = 0
    last_step_norm = 0.0
    for epoch in range(config.epochs):
        if config.eta is None and config.step_rule == "schedule":
            # the per-mode default: STEP_SCALE / L_n at the epoch's first iterate
            epoch_steps = {}
            for n in (1, 2, 3):
                lip = lipschitz_bound(factors, n)
                if not 0.0 < lip < math.inf:
                    raise SolverAbort(k, n, "zero or overflowing Lipschitz bound")
                epoch_steps[n] = STEP_SCALE / lip
        counts = [0, 0, 0]
        last_eta = [None, None, None]
        for _ in range(iters_per_epoch):
            if config.mode_policy == "cyclic":
                n = 1 + (k % 3)
            else:
                n = 1 + int(rng_mode.integers(3))
            counts[n - 1] += 1

            # A^k's weight is 1; lag i's weights at step k are the schedule's at k + 1 - i
            coeffs = np.array([[1.0, *(reference_inertial_weight(scale, k + 1 - i)
                                       for i in range(1, config.t + 1))]
                               for scale in (config.alpha0, config.beta0)])
            y_anchor, u_eval = _extrapolate(history[n], coeffs)
            factors_u = _with_factor(factors, n, u_eval)

            if config.step_rule == "inverse_lipschitz":
                lip = lipschitz_bound(factors_u, n)
                if not 0.0 < lip < math.inf:
                    raise SolverAbort(k, n, "zero or overflowing Lipschitz bound")
                eta = 1.0 / lip
            elif config.eta is None:
                eta = epoch_steps[n]
            else:
                eta = config.eta
            last_eta[n - 1] = eta

            bin_id = None
            if n in bins:
                nb = len(bins[n])
                bin_id = 0 if nb == 1 else int(rng_fiber.integers(nb))
            if est == "saga":
                fresh = _batch_gradient(factors_u, tensor, n, bins[n][bin_id], nb)
                stored = table[n][bin_id]
                g = fresh - stored + mean[n]
                mean[n] = mean[n] + (fresh - stored) / nb
                table[n][bin_id] = fresh
                since[n] += 1
                if since[n] >= nb:
                    mean[n] = sum(table[n][1:], start=table[n][0].copy()) / nb
                    since[n] = 0
            elif bin_id is None or (est == "sarah" and counter[n] == 0):
                g = reference_full_gradient(factors_u, tensor, n)
            elif est == "sgd":
                g = _batch_gradient(factors_u, tensor, n, bins[n][bin_id], nb)
            else:
                idx = bins[n][bin_id]
                g = (_batch_gradient(factors_u, tensor, n, idx, nb)
                     - _batch_gradient(prev[n], tensor, n, idx, nb) + v[n])
            if est == "sarah":
                v[n], prev[n] = g, factors_u
                counter[n] = (counter[n] + 1) % q[n]

            a_new = prox(config.reg, y_anchor - eta * g, eta)
            if not np.isfinite(a_new).all():
                raise SolverAbort(k, n)
            d = a_new - factors.factor(n)
            sq = float(np.sum(d * d))
            last_step_norm = math.sqrt(sq)
            factors = _with_factor(factors, n, a_new)
            history[n].append(a_new)
            k += 1

        try:
            obj = objective(factors, tensor, config.reg)
            f_val, phi_val = obj.f, obj.phi
        except ValueError:  # finite factors whose reconstruction overflows
            raise SolverAbort(k - 1, n, "the reconstruction overflows") from None
        trace.append(epoch + 1, k, phi_val, f_val, None, last_step_norm, counts, last_eta)
        if phi_val < config.abs_tol:
            break
    return factors, trace


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts even when output is captured."""
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
