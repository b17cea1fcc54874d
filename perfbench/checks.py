"""Correctness checks whose tallies feed failed_share.

Error-rate checks compare a measured point with a reference rate measured
once with a large frame budget (definitions.json, "references").  The bands
are statistical, not exact, so a change to the random stream definition
still passes while a broken decoder, whose rates move by far more, fails.
Each band is wide enough that a correct program fails a check with
probability below about 1e-9.
"""

from __future__ import annotations

import math

# Per-check false-failure probability of the frame-error band.
ALPHA = 1e-9
# Reference-rate uncertainty, in standard deviations of its own count.
REF_SIGMAS = 6.0
# Bit-error band, in standard deviations, once enough bits are expected.
BIT_SIGMAS = 7.0


class Tally:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _log_pmf(k, n, p):
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binom_tail(c, n, p, upper):
    """P(X >= c) if upper else P(X <= c), for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 0.0 if (upper and c > 0) else 1.0
    if p >= 1.0:
        return 1.0 if (upper or c >= n) else 0.0
    if upper and c <= 0 or not upper and c >= n:
        return 1.0
    total = 0.0
    k, step = c, (1 if upper else -1)
    while 0 <= k <= n:
        term = math.exp(_log_pmf(k, n, p))
        total += term
        if term < 1e-300 or (total > 0 and term < total * 1e-17):
            break
        k += step
    return min(total, 1.0)


def reference_interval(count, trials):
    """Plausible range of a reference rate measured as count / trials."""
    spread = REF_SIGMAS * math.sqrt(count)
    return max(0.0, count - spread) / trials, min(1.0, (count + spread + REF_SIGMAS) / trials)


def frame_errors_ok(frame_errors, frames, ref):
    """Frame errors in frames lie inside the binomial band of the reference FER."""
    p_lo, p_hi = reference_interval(ref["frame_errors"], ref["frames"])
    too_many = frame_errors > frames * p_hi and binom_tail(frame_errors, frames, p_hi, True) < ALPHA
    too_few = frame_errors < frames * p_lo and binom_tail(frame_errors, frames, p_lo, False) < ALPHA
    return not (too_many or too_few)


def bit_errors_ok(bit_errors, frame_errors, frames, payload_bits, ref):
    """Bit errors are consistent with the frame errors and the reference BER.

    Every errored frame holds 1 .. payload_bits bit errors.  Bits within a
    frame are correlated, so the statistical band inflates the variance by
    payload_bits, the largest possible design effect; it applies only once
    at least 10 * payload_bits bit errors are expected.
    """
    if not frame_errors <= bit_errors <= payload_bits * frame_errors:
        return False
    expected = ref["bit_errors"] * frames / ref["frames"]
    if expected < 10 * payload_bits:
        return True
    ref_rel = math.sqrt(payload_bits / max(ref["bit_errors"], 1))
    band = BIT_SIGMAS * (math.sqrt(payload_bits * expected) + expected * ref_rel)
    return abs(bit_errors - expected) <= band


def point_ok(point, payload_bits, ref):
    """One sweep point passes both the FER and the BER band."""
    return frame_errors_ok(point.frame_errors, point.frames, ref) and bit_errors_ok(
        point.bit_errors, point.frame_errors, point.frames, payload_bits, ref
    )
