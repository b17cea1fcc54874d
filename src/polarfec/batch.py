"""Vectorized many-frames-at-once kernels backing the Monte-Carlo engine.

Each function processes many frames with the identical arithmetic the
scalar reference implementations use, so results are bit-for-bit equal;
the test suite asserts that equivalence.  The SC traversal order is data
independent, which is what makes whole batches decodable in lockstep: one
node plan per frozen set, run by one executor over frame-minor buffers.

The public functions take (frames, N) rows.  The sweep keeps each chunk
frame-minor instead, one frame per column, from its draws to its error
count: _encode_systematic and the butterfly run along axis 0, and the
_*_columns decoders take (N, frames) LLRs and return x_hat =
transform(u_hat), from which the sweep reads the information bits with no
transpose and no re-encode.  decode_*_rows are adapters over them that
transpose in and return u_hat = transform(x_hat).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Per little-endian 64-bit lane of bytes, the first `dist` bytes of every
# 2*dist-byte group: the targets of a butterfly stage at distance dist.
_LANE_MASKS = {1: 0x00FF00FF00FF00FF, 2: 0x0000FFFF0000FFFF, 4: 0x00000000FFFFFFFF}
# Smallest array run on lanes: below it, the lane stages' extra ufunc calls
# cost more than they save (a 1 x 8 transform is about 2x slower on lanes).
_LANE_MIN_BYTES = 256


def butterfly(x, axis=-1):
    """Polar transform of x in place along axis; returns XORs per transform.

    Each of the log2(N) stages performs N/2 XORs, counted as they run.  A
    stage is one reshaped XOR over the whole array: the elements after axis
    travel with their bit position, so a frame-minor (N, frames) array
    transforms along axis 0 with every operand a contiguous block.  Byte
    arrays of at least _LANE_MIN_BYTES run on 64-bit lanes where a lane
    holds either 8 bit positions of one row (transforms along the last axis,
    N a multiple of 8) or 8 elements of one position (the elements after
    axis a multiple of 8).  A stage below 8 positions then XORs each lane
    with its own masked shift; a wider one XORs whole lanes.
    """
    if not x.flags.c_contiguous:
        rows = np.ascontiguousarray(x)
        xors = butterfly(rows, axis)
        x[...] = rows
        return xors
    axis %= x.ndim
    n_bits = x.shape[axis]
    inner = math.prod(x.shape[axis + 1 :])  # elements per bit position
    rows = x.reshape(-1, n_bits * inner)
    xors = 0
    dist = 1
    if x.dtype == np.uint8 and x.nbytes >= _LANE_MIN_BYTES and (
        inner % 8 == 0 or (inner == 1 and n_bits % 8 == 0)
    ):
        rows = rows.view("<u8")
        if inner == 1:
            shifted = np.empty_like(rows)
            for dist, mask in _LANE_MASKS.items():
                np.right_shift(rows, 8 * dist, out=shifted)
                np.bitwise_and(shifted, mask, out=shifted)
                np.bitwise_xor(rows, shifted, out=rows)
                xors += n_bits // 2
            dist = 8
    width = n_bits * inner // rows.shape[1]  # elements of x per element of rows
    while dist < n_bits:
        unit = dist * inner // width
        pairs = rows.reshape(len(rows), n_bits // (2 * dist), 2, unit)
        pairs[:, :, 0] ^= pairs[:, :, 1]
        xors += n_bits // 2
        dist *= 2
    return xors


def transform_rows(bits):
    """Polar transform applied to every row of a (frames, N) bit array."""
    x = np.array(bits, dtype=np.uint8, order="C")
    butterfly(x)
    return x


def encode_systematic_rows(messages, spec):
    """Row-wise two-pass systematic encoding of a (frames, K) message array."""
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.ndim != 2 or messages.shape[1] != spec.info_len:
        raise ValueError(f"expected {spec.info_len} message bits per row, got shape {messages.shape}")
    return _encode_systematic(messages, spec, 1)


def _encode_systematic(messages, spec, axis):
    """Two-pass systematic encoding of a 2-D uint8 message array whose K bits
    run along axis: 1 for (frames, K) rows, 0 for frame-minor (K, frames).

    The message is gathered onto info_set (np.take, several times faster
    than a fancy-index scatter), and frozen positions are zeroed by an AND
    with the info mask.
    """
    info_mask = ~spec.frozen_mask()
    source = np.maximum(np.cumsum(info_mask) - 1, 0)  # message bit of each info position
    mask = info_mask if axis else info_mask[:, None]
    x = np.take(messages, source, axis=axis) & mask
    butterfly(x, axis)
    x &= mask
    butterfly(x, axis)
    return x


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


# Node plan operations.
_F, _G, _G0, _LEAF, _MERGE = range(5)

# Bytes per operand block of one F or G call, small enough that the
# passes over a block stay in cache.
_BLOCK_BYTES = 1 << 18


@lru_cache(maxsize=16)
def _node_plan(n_bits, frozen_set):
    """Data-independent SC node plan: the tree walk as a flat operation list.

    Walks depth-first (F, left subtree, G, right subtree, merge) and skips
    every rate-0 subtree together with the F or G that would feed it: its
    bits are 0 and its partial sums 0 whatever the LLRs.  An entry is (op,
    stage, base) for the node of 2^stage bits at base.  _F and _G write the
    child's LLRs to buffer stage-1; _G0 is a G whose left child is rate-0,
    so its feedback is 0.  _LEAF decides bit base.  _MERGE XORs the right
    child's partial sums into the left child's.
    """
    info_count = np.concatenate([[0], np.cumsum(~np.isin(np.arange(n_bits), frozen_set))])
    plan = []

    def rate0(base, size):
        return info_count[base + size] == info_count[base]

    def visit(stage, base):
        if stage == 0:
            plan.append((_LEAF, 0, base))
            return
        half = 1 << (stage - 1)
        left0, right0 = rate0(base, half), rate0(base + half, half)
        if not left0:
            plan.append((_F, stage, base))
            visit(stage - 1, base)
        if not right0:
            plan.append((_G0 if left0 else _G, stage, base))
            visit(stage - 1, base + half)
            plan.append((_MERGE, stage, base))

    if not rate0(0, n_bits):
        visit(n_bits.bit_length() - 1, 0)
    return tuple(plan)


def _sc_execute(llrs, spec, dtype, f, g):
    """The batch SC decoder: run spec's node plan over frame-minor (N,
    frames) LLRs in dtype; returns x_hat, the (N, frames) root partial sums.

    llrs is the root's stage buffer and is only read, so it may be of any
    dtype whose values dtype holds exactly.  Stage s < n has one (2^s,
    frames) buffer, so the operands of every F and G are two contiguous
    half-blocks, taken _BLOCK_BYTES at a time.  f(a, b, out, scratch) and
    g(a, b, bits, out) write into out; g gets bits None where the feedback
    is all zero.  Partial sums live in one (N, frames) array indexed by bit
    position: each leaf writes its decision there and each merge XORs in
    place, so after the root's merge it holds transform(u_hat).
    """
    plan = _node_plan(spec.block_len, spec.frozen_set)
    n_bits, frames = llrs.shape
    itemsize = np.dtype(dtype).itemsize
    block = 1 << max(0, (_BLOCK_BYTES // (itemsize * max(frames, 1))).bit_length() - 1)
    buffers = [np.empty((1 << s, frames), dtype) for s in range(spec.stages)] + [llrs]
    scratch = np.empty((min(block, n_bits), frames), dtype)
    sums = np.zeros((n_bits, frames), dtype=np.uint8)
    for op, stage, base in plan:
        if op == _LEAF:
            np.less(buffers[0][0], 0, out=sums[base])
            continue
        half = 1 << (stage - 1)
        if op == _MERGE:
            left = sums[base : base + half]
            np.bitwise_xor(left, sums[base + half : base + 2 * half], out=left)
            continue
        v, out = buffers[stage], buffers[stage - 1]
        step = min(block, half)
        for lo in range(0, half, step):
            a, b = v[lo : lo + step], v[half + lo : half + lo + step]
            if op == _F:
                f(a, b, out[lo : lo + step], scratch[:step])
            else:
                bits = sums[base + lo : base + lo + step] if op == _G else None
                g(a, b, bits, out[lo : lo + step])
    return sums


def _u_hat_rows(x_hat):
    """(frames, N) u_hat rows of an (N, frames) x_hat: the polar transform is
    its own inverse, so u_hat = transform(x_hat)."""
    u_hat = _transposed(x_hat, np.uint8)
    butterfly(u_hat)
    return u_hat


def _f_minsum(a, b, out, scratch):
    """sign(a*b) * min(|a|, |b|) as max(min(a, b), -max(a, b)), exact in
    every dtype.  A zero may come out as -0.0 where the scalar gives 0.0;
    both compare and add as zero, so no decision differs."""
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

    Integer LLRs, such as hard_llr_rows gives, decode on integers: every F
    and G value is then an integer of magnitude at most N*max|LLR|, so
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
    half away from zero, saturate to +/-max_mag; returns int32 grid values."""
    values = np.array(llrs, dtype=float)
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
    """Map hard decisions to unit integer LLR rows, bit 0 -> +1 and bit 1 -> -1."""
    return np.where(np.asarray(bits) == 0, np.int8(1), np.int8(-1))
