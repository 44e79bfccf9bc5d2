"""Synthetic exact-rank instances with optional Gaussian noise at a target SNR."""

from __future__ import annotations

import math

import numpy as np

from .model import LL1Factors, RankVector, reconstruct
from .solver import random_factors, rng_streams
from .tensor import DenseTensor3

# past +-1000 dB the noise is 50 orders of magnitude off the signal, and far
# enough past it the noise scale or the noisy tensor is not finite
MAX_SNR_DB = 1000


def generate(
    dims, ranks: RankVector, snr_db: float, seed: int
) -> tuple[DenseTensor3, LL1Factors]:
    """Uniform(0,1) ground-truth factors; noise scaled so that
    10*log10(||clean||^2 / ||noise||^2) equals `snr_db` (+inf -> noiseless),
    which must be +inf or within +-MAX_SNR_DB."""
    if not (abs(snr_db) <= MAX_SNR_DB or snr_db == math.inf):
        raise ValueError(f"snr_db must be +inf or a number from -{MAX_SNR_DB} to "
                         f"{MAX_SNR_DB}, got {snr_db!r}")
    streams = rng_streams(seed)
    truth = random_factors(dims, ranks, streams["init"])
    clean = reconstruct(truth)
    if snr_db == math.inf:
        return clean, truth
    noise = streams["noise"].standard_normal(dims)
    scale = clean.norm() / (np.linalg.norm(noise) * 10.0 ** (snr_db / 20.0))
    return DenseTensor3(clean.array + scale * noise), truth
