"""Shared test helpers: the acceptance-criterion log and a standalone PALM loop."""

import math

import numpy as np

from midasll1.model import full_gradient, lipschitz_bound, objective
from midasll1.prox import prox
from midasll1.solver import init_factors, rng_streams

ACCEPTANCE_RESULTS: list[str] = []


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
            g = full_gradient(factors, tensor, n)
            a_new = prox(config.reg, n, factors.factor(n) - eta * g, eta)
            d = a_new - factors.factor(n)
            last = math.sqrt(float(np.sum(d * d)))
            factors = factors.with_factor(n, a_new)
        obj = objective(factors, tensor, config.reg)
        phi.append(obj.phi)
        f.append(obj.f)
        step_norm.append(last)
        if obj.phi < config.abs_tol:
            break
    return factors, phi, f, step_norm


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts even when output is captured."""
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
