import math

import numpy as np
import pytest

from midasll1.prox import (
    NONE,
    NONNEG,
    Regularizer,
    penalty_value,
    prox,
)


def test_regularizer_validation():
    with pytest.raises(ValueError):
        Regularizer("l1")
    with pytest.raises(ValueError):
        Regularizer("ridge", -1.0)
    with pytest.raises(ValueError):
        Regularizer("ridge", math.nan)


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.3", None, 1j])
def test_regularizer_rejects_a_weight_that_is_not_real(bad):
    """A bool or a weight that is not a real number is a ValueError that
    names the weight, not a TypeError or a `ridge:True` in a config file."""
    with pytest.raises(ValueError, match="^ridge weight must be a real number"):
        Regularizer("ridge", bad)


def test_regularizer_stores_its_weight_as_a_float():
    for lam in (1, np.int64(2), np.float32(0.1), np.float64(0.3)):
        reg = Regularizer("ridge", lam)
        assert type(reg.lam) is float and reg.lam == float(lam)


def test_prox_none_is_identity_copy():
    m = np.array([[-1.0, 2.0], [0.5, -3.0]])
    out = prox(NONE, m, 0.1)
    np.testing.assert_array_equal(out, m)
    out[0, 0] = 99.0
    assert m[0, 0] == -1.0


def test_prox_nonneg_clips():
    m = np.array([[-1.0, 2.0], [0.0, -0.5]])
    np.testing.assert_array_equal(
        prox(NONNEG, m, 1.0), [[0.0, 2.0], [0.0, 0.0]]
    )


def test_prox_nonneg_idempotent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 3))
    once = prox(NONNEG, m, 0.2)
    np.testing.assert_array_equal(prox(NONNEG, once, 0.2), once)


def test_prox_ridge_shrinkage():
    reg = Regularizer("ridge", 2.0)
    m = np.array([[3.0, -6.0]])
    # minimizer of lam/2 z^2 + (z-m)^2/(2 eta) is m / (1 + eta*lam)
    np.testing.assert_allclose(prox(reg, m, 0.5), m / 2.0, rtol=1e-15)


def test_prox_ridge_optimality_via_grid():
    reg = Regularizer("ridge", 0.7)
    eta = 0.3
    m = np.array([[1.3]])
    z_star = prox(reg, m, eta)[0, 0]
    obj = lambda z: 0.35 * z * z + (z - 1.3) ** 2 / (2 * eta)
    for dz in (-1e-4, 1e-4):
        assert obj(z_star) <= obj(z_star + dz)


def test_prox_rejects_nonpositive_step():
    for eta in (0.0, -1.0, math.nan):
        for reg in (NONE, NONNEG, Regularizer("ridge", 1.5)):
            with pytest.raises(ValueError, match="prox step must be positive"):
                prox(reg, np.zeros((2, 2)), eta)


def test_prox_nonexpansive():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    for reg in (NONE, NONNEG, Regularizer("ridge", 1.5)):
        pa, pb = prox(reg, a, 0.4), prox(reg, b, 0.4)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-15


def test_penalty_values():
    a = np.array([[1.0, 2.0]])
    assert penalty_value(NONE, a) == 0.0
    assert penalty_value(NONNEG, a) == 0.0
    assert penalty_value(NONNEG, -a) == math.inf
    reg = Regularizer("ridge", 4.0)
    assert penalty_value(reg, a) == pytest.approx(2.0 * 5.0)


@pytest.mark.parametrize("reg", [NONE, NONNEG, Regularizer("ridge", 1.5)], ids=lambda r: r.kind)
def test_prox_out_gives_the_same_bits(reg):
    """`out=` writes the new array's bits into `out` and returns it, also
    when `out` is `m` itself."""
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 3))
    m[0, 0] = -0.0
    want = prox(reg, m, 0.4)
    out = np.full_like(m, np.nan)
    assert prox(reg, m, 0.4, out=out) is out
    assert out.tobytes() == want.tobytes()
    alias = m.copy()
    assert prox(reg, alias, 0.4, out=alias) is alias
    assert alias.tobytes() == want.tobytes()
