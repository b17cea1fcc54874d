"""BPSK symbols, AWGN, LLR computation and hard slicing for the Monte-Carlo runs.

All noise figures are parameterized by Eb/N0 (energy per information bit over
noise spectral density), with the code rate folded into the noise variance so
codes of different rates sit on one comparable axis.  The BPSK symbols +/-1
have unit energy.  This module owns the channel's three rules, the bit to
symbol map, the 2y/sigma^2 LLR scaling and the y < 0 slicer; the sweep calls
them on its chunks.  The scaling divides once, y / (sigma^2/2), whenever
halving sigma^2 is exact, as it is for every sigma^2 of 2^-1021 or more;
for a sigma^2 near the smallest normal float whose half rounds, it keeps
the two passes, 2y and then / sigma^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Channel operating point, and the one owner of the sigma rule.

    noise_sigma is derived as sigma^2 = 1 / (2 * R * 10^(ebn0_db/10)) for
    unit-energy symbols.  An Eb/N0 whose sigma^2 is not a normal float
    (above about 3080 dB or below about -3080 dB) is rejected, since its
    LLRs would divide by zero or overflow.
    """

    ebn0_db: float
    code_rate: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")
        if not (0 < self.code_rate <= 1):
            raise ValueError(f"code_rate must be in (0, 1], got {self.code_rate}")
        try:
            sigma = self.noise_sigma
        except (OverflowError, ZeroDivisionError):  # 10^(ebn0_db/10) overflows or underflows to 0
            sigma = math.nan
        if not sys.float_info.min <= sigma * sigma <= sys.float_info.max:
            raise ValueError(f"Eb/N0 {self.ebn0_db} dB gives noise sigma^2 outside the normal float range")

    @property
    def noise_sigma(self):
        ebn0 = 10.0 ** (self.ebn0_db / 10.0)
        return math.sqrt(1.0 / (2.0 * float(self.code_rate) * ebn0))


def modulate(codeword):
    """Map bits to BPSK symbols, 0 -> +1 and 1 -> -1, as int8.

    Adding them to float noise is exact, and they are also the unit hard
    LLRs of the bits.
    """
    symbols = np.multiply(np.asarray(codeword, dtype=np.uint8).view(np.int8), np.int8(-2))
    symbols += 1
    return symbols


def llr_from_awgn(received, params):
    """Per-symbol channel LLRs 2*y / sigma^2, positive favouring bit 0."""
    return _scale_to_llrs(np.array(received, dtype=float), params)


def _scale_to_llrs(received, params):
    """llr_from_awgn's rule, written over the float array received, which
    is returned.

    2y is exact, so 2y / sigma^2 and y / (sigma^2/2) are the correctly
    rounded quotient of one real number whenever sigma^2/2 is exact: one
    pass gives the two-pass result bit for bit (for any y whose 2y is
    finite).  Halving rounds only a sigma^2 below 2^-1021 whose last
    mantissa bit is set, as the smallest sigma^2 ChannelParams admits can
    be; the guard keeps the two passes there.
    """
    sigma = params.noise_sigma
    # sigma * sigma is correctly rounded; sigma**2 can differ in the last bit.
    s2 = sigma * sigma
    half = s2 / 2
    if half * 2 == s2:
        return np.divide(received, half, out=received)
    np.multiply(received, 2.0, out=received)
    return np.divide(received, s2, out=received)


def hard_slice(received, out=None):
    """Threshold detector at 0, as uint8 bits.

    A symbol exactly on the threshold, -0.0 included, decides bit 0,
    consistent with the LLR = 0 tie rule.  This channel is a BSC with
    crossover p = Q(1/sigma).  out, if given, is a bool array of
    received's shape that takes the decisions; it is returned viewed as
    uint8.
    """
    return np.less(received, 0, out=out).view(np.uint8)
