"""Polar encoding and floating-point successive cancellation decoding.

Encoding is the in-place butterfly realization of the n-fold Kronecker power
of the 2x2 polarizing kernel, in natural index order (no bit-reversal
permutation anywhere; the decoder shares the same order).  At length 2 the
map is (u0, u1) -> (u0 xor u1, u1).

LLR sign convention throughout: positive means bit 0 is more likely,
i.e. LLR = log(P(bit=0)/P(bit=1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import _check_llr_magnitude, butterfly, encode_systematic_rows, hard_llr_rows
from .construction import is_power_of_two


@dataclass(frozen=True)
class DecodeResult:
    """Output of a successive cancellation decode.

    Attributes
    ----------
    u_hat : ndarray
        Estimated source vector, length N; zero at every frozen index.
    x_hat : ndarray
        Codeword estimate transform(u_hat): the decoder's root partial sums.
    info_bits : ndarray
        x_hat restricted to the information positions (the systematic payload).
    pe_op_count : int
        Total number of scalar F and G evaluations, N*log2(N).
    saturation_events : int | None
        For fixed-point decodes, how many arithmetic results were clamped;
        None for floating-point decodes.
    """

    u_hat: np.ndarray
    x_hat: np.ndarray
    info_bits: np.ndarray
    pe_op_count: int
    saturation_events: int | None = None


def _llr_frame(channel_llrs, spec):
    """One frame of channel LLRs as a float array, checked to hold exactly
    N values within batch._check_llr_magnitude (finite, with N*max|LLR|
    finite); every scalar decoder takes its input through here."""
    llrs = np.asarray(channel_llrs, dtype=float)
    if llrs.shape != (spec.block_len,):
        raise ValueError(f"expected {spec.block_len} LLRs, got {llrs.size}")
    _check_llr_magnitude(llrs, spec.block_len)
    return llrs


def _as_bits(bits):
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    # Checked before the cast, which would truncate 0.6 to 0 and wrap 257 to 1.
    # Integer entries are all 0 or 1 exactly when their bitwise OR is.
    if arr.dtype.kind in "biu":
        binary = 0 <= np.bitwise_or.reduce(arr) <= 1
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValueError("bit vector entries must be 0 or 1")
    return np.asarray(arr, dtype=np.uint8)


def encode_nonsystematic(u_full, return_xor_count=False):
    """Multiply a length-N source vector by the polar transform over GF(2).

    Runs the in-place butterfly; each of the log2(N) stages performs N/2
    XORs, so the total XOR count is (N/2)*log2(N).  The transform is an
    involution: applying it twice returns the input.

    Parameters
    ----------
    u_full : array-like of {0,1}
        Source vector, length a power of two.
    return_xor_count : bool
        When True, also return the number of XOR operations performed.
    """
    x = _as_bits(u_full).copy()
    if not is_power_of_two(len(x)):
        raise ValueError(f"length must be a power of two, got {len(x)}")
    xors = butterfly(x)
    if return_xor_count:
        return x, xors
    return x


def encode_systematic(info, spec):
    """Systematically encode K information bits into a length-N codeword.

    Two-pass non-recursive procedure: scatter the message onto the
    information positions with zeros elsewhere, transform, re-zero the
    frozen positions, transform again.  The resulting codeword carries the
    message verbatim on info_set, and its transform is zero on frozen_set.
    """
    msg = _as_bits(info)
    if len(msg) != spec.info_len:
        raise ValueError(f"expected {spec.info_len} info bits, got {len(msg)}")
    return encode_systematic_rows(msg[None, :], spec)[0]


def f_exact(la, lb):
    """Exact log-domain combine of two LLRs (the check-node operation).

    Computes log((1 + e^(la+lb)) / (e^la + e^lb)) through the stable Jacobi
    logarithm max(a, b) + log1p(exp(-|a - b|)).  The result never exceeds
    min(|la|, |lb|) in magnitude and carries the sign of la*lb.
    """
    return _jacobi(la + lb, 0.0) - _jacobi(la, lb)


def _jacobi(a, b):
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def f_minsum(la, lb):
    """Hardware-friendly approximation sign(la*lb) * min(|la|, |lb|).

    A zero operand is treated as positive, so any zero input yields zero
    through the min term.
    """
    mag = min(abs(la), abs(lb))
    return -mag if (la < 0) != (lb < 0) else mag


def g_func(la, lb, u_hat):
    """Combine two LLRs with a decided-bit feedback: lb + la or lb - la."""
    if u_hat not in (0, 1):
        raise ValueError(f"u_hat must be 0 or 1, got {u_hat}")
    return lb + la if u_hat == 0 else lb - la


_F_MODES = {"exact": f_exact, "minsum": f_minsum}


def _sc_recursion(values, frozen, f, g):
    """Scalar SC traversal shared by the float and fixed-point decoders.

    values: the N channel values as a list; frozen: length-N mask; f(a, b)
    and g(a, b, bit) combine one operand pair.  Returns (u_hat, x_hat), where
    x_hat is the root's partial sums, i.e. transform(u_hat).  Every node is
    visited, so a decode always makes N*log2(N) F and G evaluations.
    """
    u_hat = np.zeros(len(values), dtype=np.uint8)

    def rec(v, base):
        m = len(v)
        if m == 1:
            if not frozen[base] and v[0] < 0:
                u_hat[base] = 1
            return [int(u_hat[base])]
        half = m // 2
        a = v[:half]
        b = v[half:]
        left = rec([f(a[j], b[j]) for j in range(half)], base)
        right = rec([g(a[j], b[j], left[j]) for j in range(half)], base + half)
        return [left[j] ^ right[j] for j in range(half)] + right

    x_hat = np.array(rec(values, 0), dtype=np.uint8)
    return u_hat, x_hat


def sc_decode(channel_llrs, spec, f_mode="minsum"):
    """Successive cancellation decode of one frame of channel LLRs.

    Standard recursive schedule: descend left applying the F combine,
    decide the leaf bit (frozen index -> 0; otherwise 0 iff LLR >= 0, ties
    deciding 0), ascend applying G with the partial-sum feedback, and merge
    partial sums through the butterfly.  The systematic payload is read from
    the root partial sums x_hat = transform(u_hat).

    Parameters
    ----------
    channel_llrs : array-like of float
        N finite channel LLRs, positive favouring bit 0.
    spec : CodeSpec
    f_mode : {"minsum", "exact"}

    Returns
    -------
    DecodeResult
    """
    llrs = _llr_frame(channel_llrs, spec)
    if f_mode not in _F_MODES:
        raise ValueError(f"f_mode must be one of {tuple(_F_MODES)}, got {f_mode!r}")
    u_hat, x_hat = _sc_recursion(llrs.tolist(), spec.frozen_mask(), _F_MODES[f_mode], g_func)
    return DecodeResult(
        u_hat=u_hat,
        x_hat=x_hat,
        info_bits=x_hat[list(spec.info_set)],
        pe_op_count=spec.block_len * spec.stages,
    )


def hard_decision_decode(received_bits, spec):
    """Decode hard channel decisions by mapping them onto unit LLRs.

    Bit 0 maps to +1, bit 1 to -1, then the min-sum SC decoder runs
    unchanged.  Every min-sum sum of unit inputs is an exact integer, so
    zero ties stay exact zeros.
    """
    bits = _as_bits(received_bits)
    if len(bits) != spec.block_len:
        raise ValueError(f"expected {spec.block_len} bits, got {len(bits)}")
    return sc_decode(hard_llr_rows(bits), spec, f_mode="minsum")
