"""Fixed-point successive cancellation decoding with saturating arithmetic.

LLRs are held as Q-bit signed integers on a symmetric grid: the usable range
is [-(2^(Q-1)-1), +(2^(Q-1)-1)], excluding the two's-complement minimum so
negation can never overflow.  Every add/subtract saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import _quantize_into, quantize_rows
from .codec import DecodeResult, _as_int, _llr_frame, _sc_recursion, f_minsum, g_func


@dataclass(frozen=True)
class QuantSpec:
    """Fixed-point format: Q total bits, of which fraction_bits are fractional.

    Both are integers (numpy's too, held as Python ints); anything else,
    such as 5.5, raises ValueError.
    """

    total_bits_q: int
    fraction_bits: int = 1

    def __post_init__(self):
        for name in ("total_bits_q", "fraction_bits"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        # The row decoder holds grid values in int32, and a G sum of two values
        # of magnitude up to 2^(Q-1) - 1 fits in int32 only for Q <= 31.
        if not (3 <= self.total_bits_q <= 31):
            raise ValueError(f"total_bits_q must be in [3, 31], got {self.total_bits_q}")
        if not (0 <= self.fraction_bits < self.total_bits_q):
            raise ValueError(
                f"fraction_bits must be in [0, {self.total_bits_q}), got {self.fraction_bits}"
            )

    @property
    def max_mag(self):
        """Largest representable magnitude in grid units: 2^(Q-1) - 1."""
        return (1 << (self.total_bits_q - 1)) - 1

    @property
    def step(self):
        """LLR value of one grid unit."""
        return 2.0 ** (-self.fraction_bits)


def quantize(value, qspec):
    """Quantize one real LLR to its raw grid integer: scale by
    2^fraction_bits, round half away from zero, saturate to +/-max_mag.
    A non-finite LLR raises ValueError."""
    return int(quantize_rows(value, qspec))


def sc_decode_fixed(channel_llrs, spec, qspec):
    """Min-sum SC decode entirely on the Q-bit integer grid.

    Channel LLRs pass through the saturating quantizer (there is no separate
    pre-clip), the F combine is sign*min on raw values, which is exact in
    fixed point, and G is a saturating add/subtract.  Raw value 0 at a leaf
    decides bit 0.  Saturation events during the decode (including channel
    quantization) are counted and reported on the result.

    Returns
    -------
    DecodeResult with saturation_events set.
    """
    llrs = _llr_frame(channel_llrs, spec)
    max_mag = qspec.max_mag
    # A channel LLR saturates exactly when it lies half a grid step or more
    # beyond the largest magnitude, because it then rounds past max_mag.
    sat_events = int(np.count_nonzero(np.abs(llrs) >= (max_mag + 0.5) * qspec.step))

    def g_sat(la, lb, bit):
        nonlocal sat_events
        out = g_func(la, lb, bit)
        if -max_mag <= out <= max_mag:
            return out
        sat_events += 1
        return max_mag if out > 0 else -max_mag

    # _llr_frame has checked llrs; _quantize_into overwrites its input.
    raw = np.empty(spec.block_len, np.int32)
    _quantize_into(llrs.copy(), qspec, raw)
    u_hat, x_hat = _sc_recursion(raw.tolist(), spec.frozen_mask().tolist(), f_minsum, g_sat)
    return DecodeResult(
        u_hat=u_hat,
        x_hat=x_hat,
        info_bits=x_hat[list(spec.info_set)],
        pe_op_count=spec.block_len * spec.stages,
        saturation_events=sat_events,
    )
