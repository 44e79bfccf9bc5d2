"""Shared test helpers: the acceptance-criterion log and standalone solver loops."""

import math
from collections import deque

import numpy as np

from midasll1.model import lipschitz_bound
from midasll1.prox import penalty_value, prox
from midasll1.solver import (
    STEP_SCALE,
    RunTrace,
    SolverAbort,
    effective_batches,
    inertial_coefficient,
    init_factors,
    rng_streams,
)
from midasll1.tensor import DenseTensor3, khatri_rao, row_count, unfold

ACCEPTANCE_RESULTS: list[str] = []


# Reference kernels: the H matrices, full gradient and objective written the
# plain way (per-block kron / Khatri-Rao and hstack, a contiguous copy of the
# unfolding, a validated reconstruction), so that the copy-free kernels of
# `midasll1.model` are pinned bit for bit against code they do not share.


def reference_build_H(factors, mode):
    rk = factors.ranks
    if mode in (1, 2):
        other = factors.A2 if mode == 1 else factors.A1
        return np.hstack([np.kron(factors.A3[:, r:r + 1], other[:, blk])
                          for r, blk in enumerate(rk.blocks)])
    return np.stack([khatri_rao(factors.A2[:, blk], factors.A1[:, blk]).sum(axis=1)
                     for blk in rk.blocks], axis=1)


def reference_full_gradient(factors, tensor, mode):
    h = reference_build_H(factors, mode)
    x_n = np.ascontiguousarray(unfold(tensor, mode))
    a = factors.factor(mode)
    return (a @ (h.T @ h) - x_n.T @ h) / tensor.size


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


def palm_reference(config, tensor):
    """Cyclic full-gradient proximal sweeps with per-mode 1/L steps, written
    out by hand so that the reduction of `run` to PALM is checked against
    code that does not go through `run`.

    Starts from the same point as `run` (same seed, same init stream) and
    returns the final factors plus the per-sweep phi, f and last step norm.
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
            factors = factors.with_factor(n, a_new)
        f_val, _, phi_val = reference_objective(factors, tensor, config.reg)
        phi.append(phi_val)
        f.append(f_val)
        step_norm.append(last)
        if phi_val < config.abs_tol:
            break
    return factors, phi, f, step_norm


def _batch_gradient(factors, tensor, mode, idx):
    """Fiber-sampled gradient from rows of the full H_n and of the unfolding."""
    h = reference_build_H(factors, mode)[idx]
    x = np.ascontiguousarray(unfold(tensor, mode)[idx])
    a = factors.factor(mode)
    return (a @ (h.T @ h) - x.T @ h) / (factors.dims[mode - 1] * len(idx))


def _extrapolate(history, coeffs):
    base = history[-1]
    out = None
    for i, c in enumerate(coeffs, start=1):
        if i + 1 > len(history) or c == 0.0:
            continue
        if out is None:
            out = base.copy()
        out += c * (history[-i] - history[-i - 1])
    return base if out is None else out


def run_reference(config, tensor):
    """The stochastic solver loop written out step by step, with its SAGA
    table and SARAH recursion inline, so that `run` is checked bit for bit
    against code that shares none of its loop, caches or estimator state.

    Draws from the same streams in the same order as `run`: one mode draw
    per step, then (SAGA) one bin draw when the mode has more than one bin,
    or (SGD, SARAH) one `choice` of the batch. Returns the final factors and
    a `RunTrace` without elapsed times.
    """
    dims = tensor.dims
    streams = rng_streams(config.seed)
    factors = init_factors(config, dims, streams["init"])
    batches = effective_batches(config, dims)
    jn = {n: row_count(dims, n) for n in (1, 2, 3)}
    iters_per_epoch = sum(math.ceil(jn[n] / batches[n]) for n in (1, 2, 3))
    est = config.estimator

    if est == "saga":
        bins = {n: [np.arange(i * batches[n], (i + 1) * batches[n])
                    for i in range(jn[n] // batches[n])] for n in (1, 2, 3)}
        table = {n: [_batch_gradient(factors, tensor, n, idx) for idx in bins[n]]
                 for n in (1, 2, 3)}
        mean = {n: sum(table[n][1:], start=table[n][0].copy()) / len(table[n])
                for n in (1, 2, 3)}
        since = {n: 0 for n in (1, 2, 3)}
    if est == "sarah":
        q = {n: config.sarah_q if config.sarah_q > 0 else math.ceil(jn[n] / batches[n])
             for n in (1, 2, 3)}
        v, prev, counter = {}, {}, {n: 0 for n in (1, 2, 3)}

    history = {n: deque([factors.factor(n)], maxlen=config.t + 2) for n in (1, 2, 3)}
    trace = RunTrace()
    rng_mode, rng_fiber = streams["mode"], streams["fiber"]
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

            lags = range(1, config.t + 1)
            y_anchor = _extrapolate(
                history[n], [inertial_coefficient(config.alpha0, k + 1 - i) for i in lags])
            u_eval = _extrapolate(
                history[n], [inertial_coefficient(config.beta0, k + 1 - i) for i in lags])
            factors_u = factors.with_factor(n, u_eval)

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

            if est == "saga":
                nb = len(bins[n])
                bin_id = 0 if nb == 1 else int(rng_fiber.integers(nb))
                fresh = _batch_gradient(factors_u, tensor, n, bins[n][bin_id])
                stored = table[n][bin_id]
                g = fresh - stored + mean[n]
                mean[n] = mean[n] + (fresh - stored) / nb
                table[n][bin_id] = fresh
                since[n] += 1
                if since[n] >= nb:
                    mean[n] = sum(table[n][1:], start=table[n][0].copy()) / nb
                    since[n] = 0
            elif est == "sgd" and batches[n] == jn[n]:
                g = reference_full_gradient(factors_u, tensor, n)
            else:
                if batches[n] == jn[n]:
                    idx = np.arange(jn[n])
                else:
                    idx = rng_fiber.choice(jn[n], size=batches[n], replace=False)
                if est == "sgd":
                    g = _batch_gradient(factors_u, tensor, n, idx)
                elif counter[n] == 0:
                    g = reference_full_gradient(factors_u, tensor, n)
                else:
                    g = (_batch_gradient(factors_u, tensor, n, idx)
                         - _batch_gradient(prev[n], tensor, n, idx) + v[n])
                if est == "sarah":
                    v[n], prev[n] = g, factors_u
                    counter[n] = (counter[n] + 1) % q[n]

            a_new = prox(config.reg, y_anchor - eta * g, eta)
            if not np.isfinite(a_new).all():
                raise SolverAbort(k, n)
            d = a_new - factors.factor(n)
            sq = float(np.sum(d * d))
            last_step_norm = math.sqrt(sq)
            factors = factors.with_factor(n, a_new)
            history[n].append(a_new)
            k += 1

        try:
            f_val, _, phi_val = reference_objective(factors, tensor, config.reg)
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
