"""Polar encoding and floating-point successive cancellation decoding.

Encoding is the in-place butterfly realization of the n-fold Kronecker power
of the 2x2 polarizing kernel, in natural index order (no bit-reversal
permutation anywhere; the decoder shares the same order).  At length 2 the
map is (u0, u1) -> (u0 xor u1, u1).

LLR sign convention throughout: positive means bit 0 is more likely,
i.e. LLR = log(P(bit=0)/P(bit=1)).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from operator import xor

import numpy as np

from . import channel
from .batch import _as_bit_array, _check_llr_magnitude, _encode_systematic, butterfly


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


def _as_int(name, value):
    """value, an integer of any kind (numpy's too), as a Python int; anything
    else, such as 5.0 or 5.5, raises ValueError."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_bits(bits):
    """One bit vector as uint8, checked by batch._as_bit_array's rule."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    return _as_bit_array(arr)


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
    return _encode_systematic(msg[:, None], spec)[:, 0]


def f_exact(la, lb):
    """Exact log-domain combine of two LLRs (the check-node operation).

    Computes log((1 + e^(la+lb)) / (e^la + e^lb)) through the stable Jacobi
    logarithm max(a, b) + log1p(exp(-|a - b|)).  In exact arithmetic the
    result never exceeds min(|la|, |lb|) in magnitude and carries the sign
    of la*lb; in floats the two logarithms cancel for small operands, so the
    computed sign need not be that product's.
    """
    return _jacobi(la + lb, 0.0) - _jacobi(la, lb)


def _jacobi(a, b):
    # numpy's exp and log1p, as batch._f_exact's: math's differ from them in
    # the last bit for a few percent of arguments, which flipped decisions
    # near ties.
    return max(a, b) + float(np.log1p(np.exp(-abs(a - b))))


def f_minsum(la, lb):
    """Hardware-friendly approximation sign(la*lb) * min(|la|, |lb|).

    A zero operand is treated as positive.  Sign-branch comparisons return
    +-la or +-lb with no min or abs call, since the scalar decoders and the
    schedule executor call this once per F.  The value equals sign * min
    under ==, but a zero may come out as -0.0 (f_minsum(-0.0, 1.0), say):
    -0.0 == 0.0, -0.0 < 0 is false and a sum with -0.0 equals the sum with
    0.0, so no decision and no later value can differ.
    """
    if la < 0:
        if lb < 0:
            return -la if la >= lb else -lb
        return la if -la <= lb else -lb
    if lb < 0:
        return -la if la <= -lb else lb
    return la if la <= lb else lb


def g_func(la, lb, u_hat):
    """Combine two LLRs with a decided-bit feedback: lb + la or lb - la."""
    if u_hat not in (0, 1):
        raise ValueError(f"u_hat must be 0 or 1, got {u_hat}")
    return lb + la if u_hat == 0 else lb - la


_F_MODES = {"exact": f_exact, "minsum": f_minsum}


def _sc_recursion(values, frozen, f, g):
    """Scalar SC traversal shared by the float and fixed-point decoders.

    values: the N channel values as a list; frozen: the length-N frozen mask
    as a list; f(a, b) and g(a, b, bit) combine one operand pair.  Returns
    (u_hat, x_hat), where x_hat is the root's partial sums, i.e.
    transform(u_hat).  Every node is visited, so a decode always makes
    N*log2(N) F and G evaluations.
    """
    u_hat = [0] * len(values)
    x_hat = _sc_node(values, 0, frozen, f, g, u_hat)
    return np.array(u_hat, dtype=np.uint8), np.array(x_hat, dtype=np.uint8)


def _sc_node(v, base, frozen, f, g, u_hat):
    """_sc_recursion's node of len(v) values at bit base: decides its bits
    into the list u_hat and returns its partial sums.  A module-level
    function, not a closure, so a decode leaves no reference cycle behind."""
    half = len(v) // 2
    if not half:
        if v[0] < 0 and not frozen[base]:
            u_hat[base] = 1
            return [1]
        return [0]
    a = v[:half]
    b = v[half:]
    left = _sc_node(list(map(f, a, b)), base, frozen, f, g, u_hat)
    right = _sc_node(list(map(g, a, b, left)), base + half, frozen, f, g, u_hat)
    return list(map(xor, left, right)) + right


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
    u_hat, x_hat = _sc_recursion(llrs.tolist(), spec.frozen_mask().tolist(), _F_MODES[f_mode], g_func)
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
    return sc_decode(channel.modulate(bits), spec, f_mode="minsum")
