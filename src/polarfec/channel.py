"""Modulation, AWGN, LLR computation and hard slicing for the Monte-Carlo runs.

All noise figures are parameterized by Eb/N0 (energy per information bit over
noise spectral density), with the code rate folded into the noise variance so
codes of different rates sit on one comparable axis.  Both supported
modulations are normalized to unit average symbol energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# On-off keying "high" amplitude.  With equiprobable bits the mean symbol
# energy is OOK_AMPLITUDE**2 / 2 = 1, matching BPSK, so one Eb/N0 definition
# covers both modulations.
OOK_AMPLITUDE = math.sqrt(2.0)

MODULATIONS = ("bpsk", "ook")


@dataclass(frozen=True)
class ChannelParams:
    """Channel operating point, and the one owner of the modulation that
    modulate, llr_from_awgn and hard_slice all follow.

    noise_sigma is derived as sigma^2 = 1 / (2 * R * 10^(ebn0_db/10)); with
    unit-energy symbols this holds for either modulation.
    """

    ebn0_db: float
    code_rate: float
    modulation: str = "bpsk"

    def __post_init__(self):
        if self.modulation not in MODULATIONS:
            raise ValueError(f"modulation must be one of {MODULATIONS}")
        if not (0 < self.code_rate <= 1):
            raise ValueError(f"code_rate must be in (0, 1], got {self.code_rate}")

    @property
    def noise_sigma(self):
        ebn0 = 10.0 ** (self.ebn0_db / 10.0)
        return math.sqrt(1.0 / (2.0 * float(self.code_rate) * ebn0))


def modulate(codeword, params):
    """Map bits to real symbols in params.modulation: bpsk 0 -> +1, 1 -> -1;
    ook 0 -> 0, 1 -> +A with A chosen for unit average energy."""
    bits = np.asarray(codeword, dtype=np.uint8)
    if params.modulation == "bpsk":
        return 1.0 - 2.0 * bits.astype(float)
    return OOK_AMPLITUDE * bits.astype(float)


def llr_from_awgn(received, params):
    """Per-symbol channel LLRs under the positive-means-zero convention.

    bpsk: LLR = 2*y / sigma^2.  ook: LLR = (A^2 - 2*A*y) / (2*sigma^2), the
    log ratio of the two Gaussian likelihoods with means 0 and A.
    """
    y = np.asarray(received, dtype=float)
    sigma = params.noise_sigma
    sigma2 = sigma * sigma  # correctly rounded; sigma**2 can differ in the last bit
    if params.modulation == "bpsk":
        return 2.0 * y / sigma2
    amp = OOK_AMPLITUDE
    return (amp * amp - 2.0 * amp * y) / (2.0 * sigma2)


def hard_slice(received, params):
    """Threshold detector: bpsk slices at 0, ook at A/2.

    A symbol exactly on the threshold decides bit 0, consistent with the
    LLR = 0 tie rule.  For bpsk this channel is a BSC with crossover
    p = Q(1/sigma).
    """
    y = np.asarray(received, dtype=float)
    if params.modulation == "bpsk":
        return (y < 0).astype(np.uint8)
    return (y > OOK_AMPLITUDE / 2.0).astype(np.uint8)
