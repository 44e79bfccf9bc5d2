"""Synthetic exact-rank instances with optional Gaussian noise at a target SNR."""

from __future__ import annotations

import math

import numpy as np

from .model import LL1Factors, RankVector, reconstruct
from .solver import random_factors, rng_streams
from .tensor import DenseTensor3


def generate(
    dims, ranks: RankVector, snr_db: float, seed: int
) -> tuple[DenseTensor3, LL1Factors]:
    """Uniform(0,1) ground-truth factors; noise scaled so that
    10*log10(||clean||^2 / ||noise||^2) equals `snr_db` (inf -> noiseless)."""
    streams = rng_streams(seed)
    truth = random_factors(dims, ranks, streams["init"])
    clean = reconstruct(truth)
    if math.isinf(snr_db):
        return clean, truth
    noise = streams["noise"].standard_normal(dims)
    scale = clean.norm() / (np.linalg.norm(noise) * 10.0 ** (snr_db / 20.0))
    return DenseTensor3(clean.array + scale * noise), truth
