import math

import numpy as np
import pytest

from midasll1.metrics import cc, format_report, psnr, report, rmse, sam
from midasll1.tensor import DenseTensor3


def rand_pair(seed=0, dims=(4, 5, 3)):
    rng = np.random.default_rng(seed)
    return DenseTensor3(rng.random(dims)), DenseTensor3(rng.random(dims))


def test_identical_tensors_are_ideal():
    x, _ = rand_pair()
    r = report(x, x)
    assert r.psnr == math.inf
    assert r.rmse == 0.0
    assert r.sam == 0.0
    assert r.cc == pytest.approx(1.0, abs=1e-12)


def test_psnr_hand_computed():
    # X constant 2 (max 2), Xhat off by 1 in a single cell of a 2x2x2 cube:
    # PSNR = 10*log10(4 * 8 / 1)
    x = DenseTensor3(2.0 * np.ones((2, 2, 2)))
    cube = x.array.copy()
    cube[0, 0, 0] = 3.0
    assert psnr(x, DenseTensor3(cube)) == pytest.approx(10 * math.log10(32.0), rel=1e-12)


def test_rmse_hand_computed():
    x = DenseTensor3(np.zeros((2, 2, 2)))
    cube = np.zeros((2, 2, 2))
    cube[1, 1, 1] = 2.0
    assert rmse(x, DenseTensor3(cube)) == pytest.approx(2.0 / math.sqrt(8), rel=1e-12)


def test_rmse_translation_of_error():
    x, xh = rand_pair(1)
    shifted = DenseTensor3(x.array + (xh.array - x.array))
    assert rmse(x, shifted) == pytest.approx(rmse(x, xh), rel=1e-15)


def test_sam_scale_invariant():
    # power-of-two scaling is exact in IEEE, so the angle is exactly zero
    x, _ = rand_pair(2)
    scaled = DenseTensor3(2.0 * x.array)
    ang, skipped = sam(x, scaled)
    assert ang == 0.0 and skipped == 0


def test_sam_orthogonal_fibers():
    # every mode-3 fiber of x is e1, of xhat is e2 -> angle pi/2 everywhere
    i1, i2 = 3, 2
    a = np.zeros((i1, i2, 2))
    b = np.zeros((i1, i2, 2))
    a[:, :, 0] = 1.0
    b[:, :, 1] = 1.0
    ang, skipped = sam(DenseTensor3(a), DenseTensor3(b))
    assert ang == pytest.approx(math.pi / 2, rel=1e-12) and skipped == 0


def test_sam_antiparallel_is_pi():
    x, _ = rand_pair(3)
    ang, _ = sam(x, DenseTensor3(-x.array))
    # arcsin is ill-conditioned at the endpoint, so only ~1e-8 is achievable
    assert ang == pytest.approx(math.pi, abs=1e-6)


def test_sam_skips_zero_fibers():
    a = np.ones((2, 2, 3))
    b = np.ones((2, 2, 3))
    a[0, 0, :] = 0.0
    ang, skipped = sam(DenseTensor3(a), DenseTensor3(b))
    assert skipped == 1 and ang == 0.0


def test_cc_perfect_linear_relation():
    x, _ = rand_pair(4)
    val, skipped = cc(x, DenseTensor3(2.0 * x.array + 5.0))
    assert val == pytest.approx(1.0, abs=1e-12) and skipped == 0


def test_cc_sign_flip():
    x, _ = rand_pair(5)
    val, _ = cc(x, DenseTensor3(-x.array))
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_cc_skips_constant_bands():
    rng = np.random.default_rng(6)
    a = rng.random((3, 3, 2))
    a[:, :, 1] = 7.0  # zero variance band
    val, skipped = cc(DenseTensor3(a), DenseTensor3(a.copy()))
    assert skipped == 1 and val == pytest.approx(1.0, abs=1e-12)


def test_dims_mismatch_raises():
    x = DenseTensor3(np.zeros((2, 2, 2)))
    y = DenseTensor3(np.zeros((2, 2, 3)))
    for fn in (psnr, rmse, sam, cc, report):
        with pytest.raises(ValueError):
            fn(x, y)


def test_report_and_format():
    x, xh = rand_pair(7)
    r = report(x, xh)
    text = format_report(r)
    assert "psnr_db" in text and "rmse" in text and "sam_rad" in text and "cc" in text
    r2 = report(x, x)
    assert "inf" in format_report(r2)


def test_nothing_measured_reads_nan_not_ideal():
    """An all-zero tensor has no nonzero fiber and no varying band: SAM and CC
    measured nothing, so they read nan (with every fiber and band counted as
    skipped), not the ideal-looking 0."""
    zero = DenseTensor3(np.zeros((4, 3, 2)))
    r = report(zero, zero)
    assert math.isnan(r.sam) and math.isnan(r.cc)
    assert (r.skipped_sam_fibers, r.skipped_cc_bands) == (12, 2)
    lines = format_report(r).splitlines()
    assert "sam_rad nan (ideal 0)" in lines and "cc nan (ideal 1)" in lines
    assert "sam_skipped_fibers 12" in lines and "cc_skipped_bands 2" in lines
