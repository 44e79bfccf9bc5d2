"""Reconstruction quality metrics: PSNR, RMSE, SAM, CC.

Mode 3 is treated as the spectral mode (hyperspectral convention): SAM
averages the angle between mode-3 fibers, CC averages the Pearson
correlation between the I3 band slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor3


@dataclass(frozen=True)
class MetricReport:
    psnr: float  # dB; +inf for an exact reconstruction, -inf when X_max = 0 (ideal: inf)
    rmse: float  # ideal: 0
    sam: float   # radians, mean over spatial positions (ideal: 0); nan if every fiber is skipped
    cc: float    # mean per-band Pearson correlation (ideal: 1); nan if every band is skipped
    skipped_sam_fibers: int = 0
    skipped_cc_bands: int = 0


def _check(x: DenseTensor3, xhat: DenseTensor3):
    if x.dims != xhat.dims:
        raise ValueError(f"dims mismatch: {x.dims} vs {xhat.dims}")


def psnr(x: DenseTensor3, xhat: DenseTensor3) -> float:
    """10*log10(X_max^2 * I1*I2*I3 / ||Xhat - X||_F^2): +inf for an exact
    fit, -inf for an inexact one whose ratio is 0 (X_max = 0, say)."""
    _check(x, xhat)
    err = float(np.sum((xhat.array - x.array) ** 2))
    if err == 0.0:
        return math.inf
    xmax = float(x.array.max())
    ratio = xmax * xmax * x.size / err
    return -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)


def rmse(x: DenseTensor3, xhat: DenseTensor3) -> float:
    _check(x, xhat)
    return float(np.linalg.norm(xhat.array - x.array)) / math.sqrt(x.size)


def sam(x: DenseTensor3, xhat: DenseTensor3) -> tuple[float, int]:
    """Mean spectral angle over mode-3 fibers; zero-norm fibers are skipped.

    Returns (mean angle in radians, number of skipped fibers); the angle is
    nan when every fiber is skipped, since nothing was measured.
    """
    _check(x, xhat)
    i1, i2, i3 = x.dims
    a = x.array.reshape(i1 * i2, i3)
    b = xhat.array.reshape(i1 * i2, i3)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0) & (nb > 0)
    skipped = int((~ok).sum())
    if not ok.any():
        return math.nan, skipped
    # half-chord form: exact 0 for parallel fibers, accurate for small angles
    ua = a[ok] / na[ok, None]
    ub = b[ok] / nb[ok, None]
    chord = np.linalg.norm(ua - ub, axis=1)
    ang = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return float(ang.mean()), skipped


def cc(x: DenseTensor3, xhat: DenseTensor3) -> tuple[float, int]:
    """Mean Pearson correlation between vectorized band slices.

    Zero-variance bands are skipped; returns (mean, skipped band count),
    the mean nan when every band is skipped.
    """
    _check(x, xhat)
    i3 = x.dims[2]
    vals = []
    skipped = 0
    for band in range(i3):
        u = x.array[:, :, band].ravel()
        v = xhat.array[:, :, band].ravel()
        su, sv = u.std(), v.std()
        if su == 0.0 or sv == 0.0:
            skipped += 1
            continue
        vals.append(float(np.mean((u - u.mean()) * (v - v.mean())) / (su * sv)))
    return (float(np.mean(vals)) if vals else math.nan), skipped


def report(x: DenseTensor3, xhat: DenseTensor3) -> MetricReport:
    s, ns = sam(x, xhat)
    c, nc = cc(x, xhat)
    return MetricReport(
        psnr=psnr(x, xhat),
        rmse=rmse(x, xhat),
        sam=s,
        cc=c,
        skipped_sam_fibers=ns,
        skipped_cc_bands=nc,
    )


def format_report(r: MetricReport) -> str:
    lines = [
        f"psnr_db {r.psnr:.6f} (ideal inf)",  # an infinite value reads inf or -inf
        f"rmse {r.rmse:.10e} (ideal 0)",
        f"sam_rad {r.sam:.10e} (ideal 0)",
        f"cc {r.cc:.10f} (ideal 1)",
    ]
    if r.skipped_sam_fibers:
        lines.append(f"sam_skipped_fibers {r.skipped_sam_fibers}")
    if r.skipped_cc_bands:
        lines.append(f"cc_skipped_bands {r.skipped_cc_bands}")
    return "\n".join(lines)
