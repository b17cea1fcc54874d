"""Vectorized many-frames-at-once kernels backing the Monte-Carlo engine.

Each function processes a (frames, N) array with the identical arithmetic
the scalar reference implementations use, so results are bit-for-bit equal;
the test suite asserts that equivalence.  The SC traversal order is data
independent, which is what makes whole batches decodable in lockstep.
"""

from __future__ import annotations

import numpy as np


def butterfly(x):
    """Polar transform of x in place along its last axis; returns XORs per row.

    Each of the log2(N) stages performs N/2 XORs, counted as they run.
    """
    n_bits = x.shape[-1]
    xors = 0
    dist = 1
    while dist < n_bits:
        for j in range(0, n_bits, 2 * dist):
            x[..., j : j + dist] ^= x[..., j + dist : j + 2 * dist]
            xors += dist
        dist *= 2
    return xors


def transform_rows(bits):
    """Polar transform applied to every row of a (frames, N) bit array."""
    x = np.array(bits, dtype=np.uint8, copy=True)
    butterfly(x)
    return x


def encode_systematic_rows(messages, spec):
    """Row-wise two-pass systematic encoding of a (frames, K) message array."""
    messages = np.asarray(messages, dtype=np.uint8)
    frames = messages.shape[0]
    a = np.zeros((frames, spec.block_len), dtype=np.uint8)
    a[:, list(spec.info_set)] = messages
    t = transform_rows(a)
    t[:, list(spec.frozen_set)] = 0
    return transform_rows(t)


def _sc_rows(llrs, frozen_mask, f_rows, g_rows):
    u_hat = np.zeros(llrs.shape, dtype=np.uint8)

    def rec(v, base):
        m = v.shape[1]
        if m == 1:
            if not frozen_mask[base]:
                u_hat[:, base] = v[:, 0] < 0
            return u_hat[:, base : base + 1].copy()
        half = m // 2
        a = v[:, :half]
        b = v[:, half:]
        left = rec(f_rows(a, b), base)
        right = rec(g_rows(a, b, left), base + half)
        return np.concatenate([left ^ right, right], axis=1)

    rec(llrs, 0)
    return u_hat


def _f_minsum_rows(a, b):
    """sign(a*b) * min(|a|, |b|) in the operands' dtype; a zero counts as positive."""
    mag = np.minimum(np.abs(a), np.abs(b))
    return np.where((a < 0) != (b < 0), -mag, mag)


def _g_rows(a, b, bits):
    return np.where(bits == 0, b + a, b - a)


def decode_minsum_rows(llrs, spec):
    """Min-sum SC decode of every row; returns the (frames, N) u_hat array."""
    llrs = np.asarray(llrs, dtype=float)
    return _sc_rows(llrs, spec.frozen_mask(), _f_minsum_rows, _g_rows)


def _f_exact_rows(a, b):
    def jac(x, y):
        return np.maximum(x, y) + np.log1p(np.exp(-np.abs(x - y)))

    return jac(a + b, np.zeros_like(a)) - jac(a, b)


def decode_exact_rows(llrs, spec):
    """Exact log-domain SC decode of every row."""
    llrs = np.asarray(llrs, dtype=float)
    return _sc_rows(llrs, spec.frozen_mask(), _f_exact_rows, _g_rows)


def quantize_rows(llrs, qspec):
    """Quantize an LLR array of any shape: scale by 2^fraction_bits, round
    half away from zero, saturate to +/-max_mag; returns int32 grid values."""
    scaled = np.abs(llrs) * 2.0**qspec.fraction_bits
    raw = np.sign(llrs) * np.floor(scaled + 0.5)
    return np.clip(raw, -qspec.max_mag, qspec.max_mag).astype(np.int32)


def decode_fixed_rows(llrs, spec, qspec):
    """Fixed-point min-sum SC decode of every row on the Q-bit grid."""
    raw = quantize_rows(np.asarray(llrs, dtype=float), qspec)
    max_mag = np.int32(qspec.max_mag)

    def g_sat_rows(a, b, bits):
        return np.clip(_g_rows(a, b, bits), -max_mag, max_mag)

    return _sc_rows(raw, spec.frozen_mask(), _f_minsum_rows, g_sat_rows)


def hard_llr_rows(bits):
    """Map hard decisions to unit LLR rows, bit 0 -> +1.0 and bit 1 -> -1.0."""
    return np.where(np.asarray(bits, dtype=np.uint8) == 0, 1.0, -1.0)
