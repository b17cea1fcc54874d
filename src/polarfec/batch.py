"""Vectorized many-frames-at-once kernels backing the Monte-Carlo engine.

Each function processes many frames with the identical arithmetic the
scalar reference implementations use, so results are bit-for-bit equal;
the test suite asserts that equivalence.  The SC traversal order is data
independent, so one recursive walk decodes whole batches in lockstep.

The public functions take (frames, N) rows.  The sweep keeps each chunk
frame-minor instead, one frame per column, from its draws to its error
count, and the _*_columns decoders take (N, frames) LLRs and return x_hat =
transform(u_hat), from which the sweep reads the information bits with no
transpose and no re-encode.  Every polar transform is one frame-minor loop,
butterfly, and _encode_systematic encodes (K, frames) messages on frames
packed 8 to a byte, so each of its XORs and ANDs covers 8 frames.  The row
functions transpose around these kernels; decode_*_rows return u_hat =
transform(x_hat).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import channel

def butterfly(x):
    """Polar transform of x in place along axis 0; returns XORs per transform.

    x must be C-contiguous, as a reshape of any other array XORs a copy.
    Each of the log2(N) stages is one reshaped XOR over the whole array and
    performs N/2 XORs, counted as they run.  The elements after axis 0
    travel with their bit position, so on a frame-minor (N, frames) array
    every operand is a contiguous block.  This is the one polar transform:
    the (frames, N) row functions transpose around it.
    """
    n_bits = len(x)
    if n_bits < 1 or n_bits & (n_bits - 1):
        raise ValueError(f"length must be a power of two, got {n_bits}")
    if not x.flags.c_contiguous:
        raise ValueError("butterfly needs a C-contiguous array")
    inner = x.size // n_bits  # elements per bit position
    xors = 0
    dist = 1
    while dist < n_bits:
        pairs = x.reshape(n_bits // (2 * dist), 2, dist * inner)
        pairs[:, 0] ^= pairs[:, 1]
        xors += n_bits // 2
        dist *= 2
    return xors


def transform_rows(bits):
    """Polar transform of (frames, N) bit rows, transposed around butterfly."""
    rows = _as_bit_array(bits)
    if rows.ndim != 2:
        raise ValueError(f"expected (frames, N) bit rows, got shape {rows.shape}")
    x = _transposed(rows, np.uint8)
    butterfly(x)
    return _transposed(x, np.uint8)


def _as_bit_array(bits):
    """bits as a uint8 array of any shape, checked to hold only 0 and 1.

    The check runs before the cast, which would truncate 0.6 to 0 and wrap
    257 to 1; it is the one bit rule of codec._as_bits and
    encode_systematic_rows.
    """
    arr = np.asarray(bits)
    # Integer entries are all 0 or 1 exactly when their bitwise OR is.
    if arr.dtype.kind in "biu":
        binary = 0 <= np.bitwise_or.reduce(arr, axis=None) <= 1
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValueError("bit entries must be 0 or 1")
    return np.asarray(arr, dtype=np.uint8)


def encode_systematic_rows(messages, spec):
    """Two-pass systematic encoding of (frames, K) message rows, transposed
    around _encode_systematic."""
    messages = _as_bit_array(messages)
    if messages.ndim != 2 or messages.shape[1] != spec.info_len:
        raise ValueError(f"expected {spec.info_len} message bits per row, got shape {messages.shape}")
    return _transposed(_encode_systematic(_transposed(messages, np.uint8), spec), np.uint8)


def _encode_systematic(messages, spec):
    """Two-pass systematic encoding of frame-minor (K, frames) uint8 0/1
    messages; returns the (N, frames) uint8 codeword bits.

    The frames are packed 8 to a byte along axis 1, and every step runs on
    the packed bytes: the message is gathered onto info_set (np.take,
    several times faster than a fancy-index scatter), both butterflies XOR
    whole bytes, and frozen positions are zeroed by an AND with a 0xFF/0x00
    byte mask (a bool mask would keep only the low bit).  One unpack
    restores a bit per byte.  The entries are not checked;
    encode_systematic_rows is the checked entry.
    """
    info_mask = ~spec.frozen_mask()
    source = np.maximum(np.cumsum(info_mask) - 1, 0)  # message bit of each info position
    mask = np.where(info_mask, np.uint8(0xFF), np.uint8(0))[:, None]
    x = np.take(np.packbits(messages, axis=1), source, axis=0)
    x &= mask
    butterfly(x)
    x &= mask
    butterfly(x)
    return np.unpackbits(x, axis=1, count=messages.shape[1])


def _check_llr_magnitude(llrs, n_bits):
    """Raise ValueError unless every LLR and n_bits * max|LLR| are finite.

    A min-sum value at stage s is at most 2^(n-s) * max|LLR|, so under this
    bound no F or G of a length-n_bits decode can overflow.  This is the one
    LLR magnitude rule of codec._llr_frame and _llr_rows.
    """
    if not llrs.size:
        return
    peak = float(np.abs(llrs).max())
    if not math.isfinite(peak):
        raise ValueError("LLR must be finite")
    if not math.isfinite(n_bits * peak):
        raise ValueError(f"LLR magnitude {peak!r} times N = {n_bits} overflows a float")


def _llr_rows(llrs, spec):
    """(frames, N) LLR rows, checked to be N wide and, unless integer, floats
    within _check_llr_magnitude; the row counterpart of codec._llr_frame,
    through which every decode_*_rows takes its input."""
    rows = np.asarray(llrs)
    if rows.dtype.kind not in "iu":
        rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.block_len:
        raise ValueError(f"expected {spec.block_len} LLRs per row, got shape {rows.shape}")
    if rows.dtype.kind == "f":
        _check_llr_magnitude(rows, spec.block_len)
    return rows


def _transposed(x, dtype):
    """x.T as a C-contiguous array of dtype, copied 256 source rows at a time
    (a whole-array strided copy is several times slower at large N)."""
    out = np.empty(x.shape[::-1], dtype)
    for lo in range(0, len(x), 256):
        out[:, lo : lo + 256] = x[lo : lo + 256].T
    return out


# Bytes per F or G operand block, small enough that its passes stay in cache.
_BLOCK_BYTES = 1 << 18


@lru_cache(maxsize=16)
def _info_counts(n_bits, frozen_set):
    """Prefix sums of the information bits: entry i counts those below bit i."""
    return tuple(accumulate(np.isin(np.arange(n_bits), frozen_set, invert=True).tolist(), initial=0))


def _rate1(alpha, out):
    """The Rate-1 node rule: if alpha holds no zero (-0.0 is one), write the
    hard decisions alpha < 0 to out and return True; else return False."""
    if not alpha.all():
        return False
    np.less(alpha, 0, out=out)
    return True


def _sc_execute(llrs, spec, dtype, f, g):
    """The batch SC decoder: walk spec's SC tree over frame-minor (N,
    frames) LLRs in dtype; returns x_hat, the (N, frames) root partial sums.

    llrs, the root's stage buffer, is only read, so it may be of any dtype
    whose values dtype holds exactly.  Stage s < n has one (2^s, frames)
    buffer, so every F and G combines two contiguous half-blocks, taken
    _BLOCK_BYTES at a time: f(a, b, out, scratch) and g(a, b, bits, out)
    write into out, g with bits None for all-zero feedback.  Partial sums
    merge in place in one (N, frames) array, ending as transform(u_hat).

    The walk (_sc_walk: F, left child, G, right child, merge) skips each
    rate-0 subtree with the F or G that would feed it.  Two exact node
    rules end it early (Alamdar-Yazdi & Kschischang 2011; Sarkis et al. 2014):

    * Repetition: a node whose last bit is its only information bit runs
      SC's zero-feedback G chain down its right spine, decides that bit
      once and copies it to all its partial sums, as the chain's leaf and
      merges would.  A leaf is the stage-0 case.
    * Rate-1, for the min-sum F only (_f_exact is not sign-exact): a node
      of information bits whose LLRs hold no zero has partial sums equal
      to their hard decisions (each F keeps the product of the signs, each
      G the sign of its b), which _rate1 writes.  If any frame's LLRs hold
      a zero, the node's subtree runs for the whole batch; its left child
      inherits the zero through F, so only right children are checked.
    """
    n_bits, frames = llrs.shape
    itemsize = np.dtype(dtype).itemsize
    block = 1 << max(0, (_BLOCK_BYTES // (itemsize * max(frames, 1))).bit_length() - 1)
    buffers = [np.empty((1 << s, frames), dtype) for s in range(spec.stages)] + [llrs]
    scratch = np.empty((min(block, n_bits), frames), dtype)
    sums = np.zeros((n_bits, frames), dtype=np.uint8)
    info = _info_counts(n_bits, spec.frozen_set)
    if info[-1]:
        # a tuple, not a closure, so no reference cycle keeps the buffers alive
        run = (buffers, sums, info, f, g, f is _f_minsum, block, scratch)
        _sc_walk(run, spec.stages, 0, True)
    return sums


def _sc_walk(run, stage, base, check):
    """Decode the 2^stage-bit node at base, whose LLRs are in buffer stage,
    into its partial sums; check says whether a Rate-1 node is checked."""
    buffers, sums, info, f, g, rate1, _, _ = run
    mid, end = base + (1 << stage) // 2, base + (1 << stage)
    # a visited node holds an information bit; a repetition node only its last
    if info[end - 1] == info[base]:
        for s in range(stage, 0, -1):
            _combine(run, s, g)
        sums[base:end] = buffers[0][0] < 0
        return
    full = rate1 and info[end] - info[base] == end - base
    if full and check and _rate1(buffers[stage], sums[base:end]):
        return
    left = info[mid] > info[base]
    if left:
        _combine(run, stage, f)
        _sc_walk(run, stage - 1, base, not full)
    if info[end] > info[mid]:
        _combine(run, stage, g, sums[base:mid] if left else None)
        _sc_walk(run, stage - 1, mid, True)
        np.bitwise_xor(sums[base:mid], sums[mid:end], out=sums[base:mid])


def _combine(run, stage, op, bits=None):
    """One F (op f) or G (op g, bits None for zero feedback) of buffer stage into stage-1."""
    buffers, _, _, f, _, _, block, scratch = run
    v, out = buffers[stage], buffers[stage - 1]
    half = len(out)
    step = min(block, half)
    for lo in range(0, half, step):
        a, b, dst = v[lo : lo + step], v[half + lo : half + lo + step], out[lo : lo + step]
        if op is f:
            f(a, b, dst, scratch[:step])
        else:
            op(a, b, None if bits is None else bits[lo : lo + step], dst)


def _u_hat_rows(x_hat):
    """(frames, N) u_hat rows of an (N, frames) x_hat, which is overwritten:
    the polar transform is its own inverse, so u_hat = transform(x_hat)."""
    butterfly(x_hat)
    return _transposed(x_hat, np.uint8)


def _f_minsum(a, b, out, scratch):
    """sign(a*b) * min(|a|, |b|) as max(min(a, b), -max(a, b)), exact in
    every dtype.  A zero may come out as -0.0, as codec.f_minsum's may;
    it compares and adds as zero, so no decision differs."""
    np.minimum(a, b, out=out)
    np.negative(np.maximum(a, b, out=scratch), out=scratch)
    np.maximum(out, scratch, out=out)


def _g(a, b, bits, out):
    """b + (-1)^bit * a, exact in every dtype (the factor is +1 or -1)."""
    if bits is None:
        np.add(b, a, out=out)
        return
    np.multiply(bits, -2, out=out, dtype=out.dtype)
    np.add(out, 1, out=out)
    np.multiply(out, a, out=out)
    np.add(out, b, out=out)


def _f_exact(a, b, out, scratch):
    def jac(x, y):
        return np.maximum(x, y) + np.log1p(np.exp(-np.abs(x - y)))

    np.subtract(jac(a + b, 0.0), jac(a, b), out=out)


def _int_dtype(bound):
    """The narrower of int16 and int32 that holds +/-bound, else None."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return None


def _minsum_columns(llrs, spec):
    """Min-sum SC decode of frame-minor (N, frames) LLRs; returns x_hat.

    Integer LLRs, such as channel.modulate's unit LLRs, decode on integers:
    every F and G value is then an integer of magnitude at most N*max|LLR|, so
    int16 or int32 holds it exactly and the decisions equal float64's.
    Wider integers and floats decode in float64.  The LLRs are not checked;
    decode_minsum_rows is the checked entry.
    """
    dtype = None
    if llrs.dtype.kind in "iu" and llrs.size:
        dtype = _int_dtype(spec.block_len * max(-int(llrs.min()), int(llrs.max())))
    return _sc_execute(llrs, spec, dtype or np.float64, _f_minsum, _g)


def _exact_columns(llrs, spec):
    """Exact log-domain SC decode of frame-minor (N, frames) float LLRs;
    returns x_hat.  The LLRs are not checked."""
    return _sc_execute(llrs, spec, np.float64, _f_exact, _g)


def _fixed_columns(llrs, spec, qspec):
    """Fixed-point min-sum SC decode of frame-minor (N, frames) float LLRs
    on the Q-bit grid; returns x_hat.  The LLRs are not checked, and the
    quantizer overwrites them on its way into the int16 or int32 buffer
    the decode starts from.

    Every G saturates to +/-max_mag.  A G sum of two grid values is at most
    2*max_mag before its clamp, so Q <= 15 decodes in int16 and wider grids
    in int32.
    """
    max_mag = qspec.max_mag
    raw = np.empty(llrs.shape, _int_dtype(2 * max_mag))
    _quantize_into(llrs, qspec, raw)

    def g_sat(a, b, bits, out):
        _g(a, b, bits, out)
        np.clip(out, -max_mag, max_mag, out=out)

    return _sc_execute(raw, spec, raw.dtype, _f_minsum, g_sat)


def decode_minsum_rows(llrs, spec):
    """Min-sum SC decode of every row; returns the (frames, N) u_hat array."""
    rows = _llr_rows(llrs, spec)
    return _u_hat_rows(_minsum_columns(_transposed(rows, rows.dtype), spec))


def decode_exact_rows(llrs, spec):
    """Exact log-domain SC decode of every row; returns u_hat."""
    rows = _llr_rows(llrs, spec)
    return _u_hat_rows(_exact_columns(_transposed(rows, np.float64), spec))


def quantize_rows(llrs, qspec):
    """Quantize an LLR array of any shape: scale by 2^fraction_bits, round
    half away from zero, saturate to +/-max_mag; returns int32 grid values.
    A non-finite LLR raises ValueError (_check_llr_magnitude)."""
    values = np.array(llrs, dtype=float)
    _check_llr_magnitude(values, 1)
    raw = np.empty(values.shape, np.int32)
    _quantize_into(values, qspec, raw)
    return raw


def _quantize_into(llrs, qspec, out):
    """quantize_rows's rule, written into the integer array out with no
    temporary array; the float array llrs is overwritten.

    The grid value is sign(v) * floor(min(|v|, max_mag * step) /
    step + 0.5).  Every |v| from max_mag * step up rounds to max_mag, so
    clamping before the scaling saturates exactly as clamping after it
    would, and the scaling by the power of two 1 / step cannot overflow.
    """
    np.sign(llrs, out=out, casting="unsafe")
    np.abs(llrs, out=llrs)
    np.minimum(llrs, qspec.max_mag * qspec.step, out=llrs)
    np.multiply(llrs, 2.0**qspec.fraction_bits, out=llrs)
    np.add(llrs, 0.5, out=llrs)
    np.floor(llrs, out=llrs)
    np.multiply(out, llrs, out=out, casting="unsafe")


def decode_fixed_rows(llrs, spec, qspec):
    """Fixed-point min-sum SC decode of every row on the Q-bit grid; returns u_hat."""
    rows = _llr_rows(llrs, spec)
    return _u_hat_rows(_fixed_columns(_transposed(rows, np.float64), spec, qspec))


def hard_llr_rows(bits):
    """Map hard decisions to unit int8 LLR rows, bit 0 -> +1 and bit 1 -> -1:
    their BPSK symbols, channel.modulate."""
    return channel.modulate(bits)
