"""Monte-Carlo BER/FER sweep engine with deterministic block-keyed streams.

Frame i of a point takes its randomness from row i % STREAM_FRAMES of one
stream block: the counter-based Philox stream Philox(key=[point_seed,
i // STREAM_FRAMES]) that draws the block's messages and then its noise.
frame_draws defines the messages by Generator.integers(0, 2); the chunks
take the same bits as the top bit of each raw stream byte (_chunk_draws).
That key is numpy's reading of the list, which is not always the pair
itself: a point_seed of 2^63 or more turns the list into floats, and its
key word is then point_seed rounded to a multiple of 2048 (see
point_seed_for).  A sweep's outcome is a pure function of its
configuration: frames may be simulated in any order, in chunks of any
size, or on any number of parallel workers without changing a single
count.  Early stopping cuts at the exact frame where the requested number
of frame errors is reached.

A point's chunks start at one stream block and double up to a cap
(_chunk_cap): CHUNK_FRAMES, or, for frames so long that CHUNK_FRAMES of
them would hold more than CHUNK_BYTES of float64 noise, as many whole
blocks as fit in CHUNK_BYTES, but at least one.  So a chunk's noise, and
the decoder's stage buffers that scale with its frames, stay bounded at
any code length past one block's (8 * STREAM_FRAMES * N bytes of noise);
frames of up to 64 bits keep CHUNK_FRAMES, and from N = 1024 a chunk is
one block.  A point's chunks draw into one set of buffers that the point
owns (_simulate_point), so their draws fault in no fresh pages per chunk.

A polar chunk runs frame-minor, one frame per column, from its draws to
its comparison, the layout the batch SC decoder works in: it encodes, adds
the BPSK symbols into its noise and scales that to LLRs in place (or
slices it), each step a polarfec.channel rule, decodes to x_hat, and
compares x_hat's information rows with the messages.  An RS(15,11) chunk
runs in rows, one frame per row, on bytes of two GF(16) symbols (the bits
packed flat from rows padded to whole bytes): it encodes its packed
messages, unpacks the code bytes to channel bits, adds their BPSK symbols
into its noise and slices it into a padded buffer, packs the sliced bits,
decodes them through the syndrome table and counts the bits in which the
decoded info bytes differ from the messages.  A chunk
returns only its error frames, as (count, offsets, bit-error counts), and
_cut, the one stop rule, cuts on the offsets.

A point runs its chunks in order (_simulate_point) and returns its record
in the same shape, cut at its stop.  A pool of workers takes whole points
when the grid has at least as many points as the pool has processes, so
no chunk waits on the parent and none runs past a stop; a smaller grid
hands the pool one point's chunks at a time.  The pool class is imported
on first use (the module's __getattr__), so a process that never starts a
pool does not import multiprocessing.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from . import batch, channel, reed_solomon
from .codec import _as_int
from .construction import CodeSpec, _check_exact_encoding, bhattacharyya_construct
from .quantized import QuantSpec

DECODERS = ("soft_exact", "soft_minsum", "hard", "fixed", "rs15_11")

# Frames per keyed stream block; fixed, because it defines every draw.
STREAM_FRAMES = 256
# Largest scheduling chunk, in frames and in bytes of float64 noise; any
# values give the same counts.  The byte budget is small because a point's
# chunks reuse one set of draw buffers rather than allocating their own.
CHUNK_FRAMES = 4096
CHUNK_BYTES = 2 << 20

# Most Eb/N0 points one sweep grid may hold.
MAX_EBN0_POINTS = 10_000

# Set bits of each byte value (np.bitwise_count needs numpy 2).
_BYTE_WEIGHTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.intp)

# Confidence floor: points with fewer frame errors are flagged, not trusted.
MIN_CONFIDENT_ERRORS = 20

# glibc mallopt parameters (malloc.h) set in pool workers, and their values:
# no trimming, and blocks up to glibc's 32 MiB cap served from the heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_MALLOPTS = ((_M_TRIM_THRESHOLD, 1 << 30), (_M_MMAP_THRESHOLD, 1 << 25))


class NoCrossingError(Exception):
    """A curve does not bracket the requested target error rate."""


@dataclass(frozen=True)
class SweepConfig:
    """One BER/FER sweep: code, decoder, Eb/N0 grid and stopping rules.

    Every input is checked, and the code resolved, when the config is built,
    so a bad config raises here rather than inside a pool worker.  The frame
    counts, the seed and a fixed decoder's quant_bits and frac_bits are
    held as Python ints.
    """

    # Given as a CodeSpec, an (N, K) pair of integers (constructed here), or
    # None; held as the CodeSpec for polar decoders, which must make two-pass
    # systematic encoding exact, and None for rs15_11.
    code: object = None
    decoder: str = "soft_minsum"
    ebn0_start: float = 0.0
    ebn0_stop: float = 8.0
    ebn0_step: float = 1.0
    max_frames: int = 100_000
    min_frame_errors: int = 100
    master_seed: int = 0
    quant_bits: int = 5
    frac_bits: int = 1

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if not all(map(math.isfinite, (self.ebn0_start, self.ebn0_stop, self.ebn0_step))):
            raise ValueError("Eb/N0 start, stop and step must be finite")
        if self.ebn0_step <= 0:
            raise ValueError("ebn0_step must be positive")
        if self.ebn0_stop < self.ebn0_start:
            raise ValueError("ebn0_stop must be >= ebn0_start")
        # Also rejects a grid whose step count overflows to inf, such as 0:1e308:1e-308.
        if not self._grid_steps() < MAX_EBN0_POINTS:
            raise ValueError(f"Eb/N0 grid must have at most {MAX_EBN0_POINTS} points")
        for name in ("max_frames", "min_frame_errors", "master_seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.max_frames < 1 or self.min_frame_errors < 1:
            raise ValueError("max_frames and min_frame_errors must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.decoder == "fixed":
            qspec = QuantSpec(self.quant_bits, self.frac_bits)
            object.__setattr__(self, "quant_bits", qspec.total_bits_q)
            object.__setattr__(self, "frac_bits", qspec.fraction_bits)
        code = self.code
        if code is not None and not isinstance(code, CodeSpec):
            try:
                n, k = code
            except (TypeError, ValueError):
                raise ValueError(f"code must be a CodeSpec or an (N, K) pair, got {code!r}") from None
            code = (_as_int("code N", n), _as_int("code K", k))
        if self.decoder == "rs15_11":
            if code is not None and code != (reed_solomon.N_SYMBOLS, reed_solomon.K_SYMBOLS):
                raise ValueError("rs15_11 requires code (15, 11) or none")
            object.__setattr__(self, "code", None)
        elif code is None:
            raise ValueError(f"decoder {self.decoder} requires a code")
        else:
            if not isinstance(code, CodeSpec):
                code = bhattacharyya_construct(*code)
            object.__setattr__(self, "code", _check_exact_encoding(code))
        # Sigma falls as Eb/N0 rises, so the grid's ends bound every point's.
        points = self.ebn0_points()
        _, channel_bits, rate = _frame_shape(self)
        channel.ChannelParams(points[0], rate)
        sigma = channel.ChannelParams(points[-1], rate).noise_sigma
        # Where this bound nears overflow, sigma is tiny and every received
        # |y| < 2, so each LLR 2y/sigma^2 is below 4/sigma^2; N times that
        # must stay finite, as batch._check_llr_magnitude asks of a frame.
        llr_bound = 4.0 / (sigma * sigma)
        if not math.isfinite(channel_bits * llr_bound):
            raise ValueError(
                f"Eb/N0 {points[-1]} dB gives LLRs of up to 4/sigma^2 = {llr_bound!r},"
                f" too large for a length-{channel_bits} decode"
            )

    def _grid_steps(self):
        return (self.ebn0_stop - self.ebn0_start) / self.ebn0_step + 1e-9

    def ebn0_points(self):
        count = int(math.floor(self._grid_steps())) + 1
        return [self.ebn0_start + i * self.ebn0_step for i in range(count)]

    def decoder_label(self):
        if self.decoder == "fixed":
            return f"fixed_q{self.quant_bits}_f{self.frac_bits}"
        return self.decoder

    def code_label(self):
        if self.code is None:
            return f"{reed_solomon.N_SYMBOLS},{reed_solomon.K_SYMBOLS}"
        return f"{self.code.block_len},{self.code.info_len}"


@dataclass(frozen=True)
class SweepPoint:
    """Measured error rates at one Eb/N0 point."""

    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float

    @property
    def low_confidence(self):
        return self.frame_errors < MIN_CONFIDENT_ERRORS


def frame_draws(point_seed, frame_index, payload_bits, channel_bits, sigma):
    """The per-frame random draws: message bits, then channel noise.

    This is the reference definition of a frame's randomness: row
    frame_index % STREAM_FRAMES of the stream block frame_index //
    STREAM_FRAMES, which is Generator(Philox(key=[point_seed, block])) drawing
    the block's STREAM_FRAMES messages and then its noise, row by row.  The
    messages are Generator.integers(0, 2, dtype=np.uint8), which defines
    them; the chunked engine draws the same blocks from the raw stream
    bytes (_chunk_draws), and a test holds the two paths equal.  For
    point_seed >= 2^63 the key's first word is point_seed rounded to a
    multiple of 2048, not point_seed (see point_seed_for).
    """
    block, row = divmod(frame_index, STREAM_FRAMES)
    gen = np.random.Generator(np.random.Philox(key=[point_seed, block]))
    messages = gen.integers(0, 2, size=(STREAM_FRAMES, payload_bits), dtype=np.uint8)
    return messages[row], gen.normal(0.0, sigma, size=(STREAM_FRAMES, channel_bits))[row]


def point_seed_for(master_seed, point_index):
    """The seed of one sweep point: a 64-bit word of SeedSequence((master_seed,
    point_index)).

    It reaches Philox as the list key=[point_seed, block], and numpy turns a
    list holding an integer of 2^63 or more into float64, whose spacing there
    is 2048.  So for about half of all points the key's first word is
    point_seed rounded to a multiple of 2048, and nearby seeds share streams:
    2^63 + 1 and 2^63 + 2 draw the same frames.  Every pinned count rests on
    these keys, so they stay as they are.
    """
    ss = np.random.SeedSequence((int(master_seed), int(point_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _frame_shape(config):
    if config.code is None:
        payload = reed_solomon.K_SYMBOLS * reed_solomon.BITS_PER_SYMBOL
        chan = reed_solomon.N_SYMBOLS * reed_solomon.BITS_PER_SYMBOL
    else:
        payload, chan = config.code.info_len, config.code.block_len
    return payload, chan, payload / chan


def _draw_buffers(payload_bits, channel_bits, frames):
    """Draw buffers for chunks of up to frames frames: the flat message
    bytes, the flat float64 noise and the (STREAM_FRAMES, channel_bits)
    normal scratch that _chunk_draws writes into."""
    return (
        np.empty(payload_bits * frames, dtype=np.uint8),
        np.empty(channel_bits * frames),
        np.empty((STREAM_FRAMES, channel_bits)),
    )


def _chunk_draws(point_seed, start, count, payload_bits, channel_bits, sigma, axis, buffers=None):
    """The draws of frames [start, start+count) of a point, in the layout
    named by axis, the axis a frame's bits run along: 0 for frame-minor
    (bits, count) arrays, 1 for (count, bits) rows.
    Frame j of the messages and of the noise is frame_draws(point_seed,
    start + j, ...).

    buffers is a _draw_buffers set for at least count frames (a new one
    when None): the messages and the noise are C-contiguous prefixes of
    its flat arrays, reshaped to the layout, so the chunks of one point
    can share one set.  The returned arrays are views of it.

    Each stream block the chunk touches draws its messages, then its noise
    up to the last row the chunk uses into the STREAM_FRAMES-row scratch;
    sigma * standard normal equals gen.normal(0, sigma) bit for bit.

    A block's messages are the top bits of STREAM_FRAMES * payload_bits raw
    stream bytes (random_raw's 64-bit words read as bytes), not
    Generator.integers(0, 2, dtype=np.uint8), which frame_draws uses.  The
    two are equal: numpy draws a bounded uint8 by Lemire's method, one
    stream byte b per value, as (2b) >> 8 for two values, with no rejection
    (its threshold (256 - 2) % 2 is 0).  It takes the bytes from 32-bit
    draws, low half of each 64-bit word first and low byte of each half
    first, which is the order in which a little-endian host views a word
    as bytes.  STREAM_FRAMES is a multiple of 8, so the block's bytes fill
    whole words either way and leave no buffered half-word: the Philox
    state the normals start from is the same.  A numpy that changes its
    bounded-uint8 draw fails the test that compares the two paths.

    The rows used are shifted into place a block at a time, transposed for
    axis 0, and the noise rows are scaled into place the same way.  One
    Philox serves the chunk: it is built from numpy's own reading of
    key=[point_seed, first block], seeds of 2^63 and more included, and
    each block restores that fresh state (counter 0, empty buffer) with key
    word 1 set to the block, which draws what Philox(key=[point_seed,
    block]) draws at a fraction of its build cost.
    """
    flat_messages, flat_noise, scratch = buffers or _draw_buffers(payload_bits, channel_bits, count)
    messages = flat_messages[: payload_bits * count].reshape(
        (payload_bits, count) if axis == 0 else (count, payload_bits)
    )
    noise = flat_noise[: channel_bits * count].reshape((channel_bits, count) if axis == 0 else (count, channel_bits))
    # One stream byte per message bit, 8 to a word.
    message_words = STREAM_FRAMES * payload_bits // 8
    stop = start + count
    first_block = start // STREAM_FRAMES
    bit_generator = np.random.Philox(key=[point_seed, first_block])
    gen = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    for block in range(first_block, -(-stop // STREAM_FRAMES)):
        first = block * STREAM_FRAMES
        lo, hi = max(start, first) - first, min(stop, first + STREAM_FRAMES) - first
        frames = slice(first + lo - start, first + hi - start)
        at = frames if axis else (slice(None), frames)
        fresh["state"]["key"][1] = block
        bit_generator.state = fresh
        raw = bit_generator.random_raw(message_words).view(np.uint8).reshape(STREAM_FRAMES, payload_bits)[lo:hi]
        np.right_shift(raw if axis else raw.T, 7, out=messages[at])
        gen.standard_normal(out=scratch[:hi])
        # Axis 0 transposes on the read side: a strided write is much slower.
        np.multiply(scratch[lo:hi] if axis else scratch[lo:hi].T, sigma, out=noise[at])
    return messages, noise


def _simulate_chunk(args):
    """Simulate frames [start, start+count) of one point.

    args is (config, point_seed, start, count, params), with params the
    point's ChannelParams, and optionally a trailing _draw_buffers set for
    at least count frames, which only _simulate_point appends; without it
    the chunk draws into buffers of its own.  A polar chunk runs
    frame-minor, one frame per column, and an RS chunk in rows, each from
    its draws to its bit-error count.  Returns (count, offsets,
    bit_errors): the offsets from start of the frames with a bit error, in
    order, and their bit-error counts.  A frame has a bit error exactly
    when it is a frame error, so the error-free frames need no record.
    """
    config, point_seed, start, count, params, *buffers = args
    payload_bits, channel_bits, _ = _frame_shape(config)
    rs = config.decoder == "rs15_11"
    messages, received = _chunk_draws(
        point_seed, start, count, payload_bits, channel_bits, params.noise_sigma, 1 if rs else 0, *buffers
    )
    if rs:
        bit_errors = _rs_bit_errors(messages, received)
    else:
        bit_errors = np.count_nonzero(_polar_info_bits(config, messages, received, params) != messages, axis=0)
    offsets = np.flatnonzero(bit_errors)
    return count, offsets, bit_errors[offsets]


def _polar_info_bits(config, messages, received, params):
    """Encode, transmit and decode one frame-minor chunk of the polar code;
    returns the decoded (K, count) information bits.

    received holds the chunk's noise and is overwritten: it becomes the
    received symbols, then the soft decoders' LLRs.  hard decodes the
    symbols of the sliced bits, which are their unit LLRs.
    """
    spec = config.code
    received += channel.modulate(batch._encode_systematic(messages, spec))
    if config.decoder == "hard":
        x_hat = batch._minsum_columns(channel.modulate(channel.hard_slice(received)), spec)
    else:
        llrs = channel._scale_to_llrs(received, params)
        if config.decoder == "soft_minsum":
            x_hat = batch._minsum_columns(llrs, spec)
        elif config.decoder == "soft_exact":
            x_hat = batch._exact_columns(llrs, spec)
        else:
            x_hat = batch._fixed_columns(llrs, spec, QuantSpec(config.quant_bits, config.frac_bits))
    return np.take(x_hat, spec.info_set, axis=0)


def _rs_bit_errors(messages, received):
    """Encode, transmit, hard-slice and decode one RS(15,11) chunk of
    (count, 44) message rows; returns each frame's information bit errors.

    The GF(16) steps run on bytes of two symbols: the message rows are
    padded to 48 bits and packed flat to 6 info bytes a row, encoded to 8
    code bytes and unpacked flat to the 60 channel bits; the received rows
    are sliced into a zero-padded (count, 64) buffer, packed flat to 8 bytes
    a row and decoded, and the decoded info bytes (pad nibble 0) are XORed
    with the messages and counted by a byte popcount table.  Flat packing
    runs as one pass, where np.packbits(axis=1) goes row by row.  received
    is overwritten with the received symbols.
    """
    count, payload_bits = messages.shape
    channel_bits = received.shape[1]
    info_bytes = -(-payload_bits // 8)
    padded = np.zeros((count, 8 * info_bytes), dtype=np.uint8)
    padded[:, :payload_bits] = messages
    info = np.packbits(padded).reshape(count, info_bytes)
    code = reed_solomon._encode_packed(info)
    code_bytes = code.shape[1]
    received += channel.modulate(np.unpackbits(code).reshape(count, 8 * code_bytes)[:, :channel_bits])
    sliced = np.zeros((count, 8 * code_bytes), dtype=bool)
    channel.hard_slice(received, out=sliced[:, :channel_bits])
    decoded, _ = reed_solomon._decode_packed(np.packbits(sliced).reshape(count, code_bytes))
    return _BYTE_WEIGHTS[decoded ^ info].sum(axis=1)


def _chunk_cap(channel_bits):
    """The most frames one chunk of channel_bits-bit frames holds:
    CHUNK_FRAMES, or fewer so that its (channel_bits, frames) float64 noise
    takes at most CHUNK_BYTES, rounded down to whole stream blocks and never
    below one block.  With the defaults, frames of up to 64 bits take
    CHUNK_FRAMES, 128 bits 2048 frames, 256 bits 1024, 512 bits 512, and
    1024 bits and more one block."""
    fit = CHUNK_BYTES // (8 * channel_bits) // STREAM_FRAMES * STREAM_FRAMES
    return min(CHUNK_FRAMES, max(STREAM_FRAMES, fit))


def _chunk_starts(max_frames, cap):
    """First frames of one point's chunks of at most cap frames (_chunk_cap),
    as (ramp, steady).

    ramp lists the growing chunks: the first is one stream block (or cap,
    if smaller) and each next one doubles while it stays below cap, so a
    point that stops early wastes little.  steady is the range of the
    cap-sized chunks after it.
    """
    ramp, start, size = [], 0, min(STREAM_FRAMES, cap)
    while size < cap and start < max_frames:
        ramp.append(start)
        start, size = start + size, 2 * size
    return ramp, range(start, max_frames, cap)


def __getattr__(name):
    """ProcessPoolExecutor, imported on first use (PEP 562).

    Its module pulls in multiprocessing, which a process that never starts
    a pool (one worker, or no sweep at all) need not import.  The class is
    then stored in this module's globals, where a caller may also rebind
    it: run_sweep uses whatever sweep.ProcessPoolExecutor is bound to.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _init_worker():
    """Pool worker set-up: keep freed heap memory for the next chunk.

    By default glibc returns a freed heap top to the kernel and maps large
    blocks afresh, so each chunk faults its arrays' pages in again.  On a
    (16,11) sweep at 2 workers those faults were most of the workers'
    system time (36k per two-curve run, 7k with this).  A worker lives for
    one sweep, so it only holds its own high-water heap until then.  Where
    the C library has no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _WORKER_MALLOPTS:
        mallopt(param, value)


def run_sweep(config, workers=1):
    """Run the configured sweep; returns one SweepPoint per Eb/N0 value.

    The result is a pure function of config: counts are identical for any
    worker count and any chunk size, because frame i's draws come from
    stream block i // STREAM_FRAMES whichever chunk simulates it, and chunks
    are reduced in index order with the stop rule evaluated on the exact
    per-frame error sequence.  Each point's chunks start at one block and
    double up to _chunk_cap's frames: at most CHUNK_FRAMES, and at most
    CHUNK_BYTES of float64 noise unless one block takes more.  With
    workers > 1 the whole sweep shares one
    process pool of min(workers, chunks per point, CPU count) processes,
    each set up by _init_worker.  A grid of at least that many points hands
    the pool whole points (_simulate_point, submitted in grid order), so a
    worker runs a point's chunks back to back; a smaller grid hands it the
    chunks of one point at a time, at most one per process in flight
    (_in_order).  At one worker each point runs _simulate_point in this
    process.  config was checked, and its code resolved, when it was built.
    """
    workers = _as_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    payload_bits, channel_bits, rate = _frame_shape(config)
    ramp, steady = _chunk_starts(config.max_frames, _chunk_cap(channel_bits))
    pool_size = min(workers, len(ramp) + len(steady), os.cpu_count() or 1)
    grid = config.ebn0_points()
    tasks = (
        (config, point_seed_for(config.master_seed, point_index), channel.ChannelParams(ebn0, rate))
        for point_index, ebn0 in enumerate(grid)
    )

    def reduce(ebn0, results):
        return _reduce_point(ebn0, results, config.min_frame_errors, payload_bits)

    if pool_size == 1:
        return [reduce(ebn0, [_simulate_point(task)]) for ebn0, task in zip(grid, tasks)]
    # through the module, which imports the class on first use (__getattr__)
    with sys.modules[__name__].ProcessPoolExecutor(pool_size, initializer=_init_worker) as pool:
        if len(grid) >= pool_size:
            futures = [pool.submit(_simulate_point, task) for task in tasks]
            try:
                return [reduce(ebn0, [future.result()]) for ebn0, future in zip(grid, futures)]
            finally:
                for future in futures:
                    future.cancel()
        # Passed inline, each results iterator is dropped, and its queued
        # chunks are cancelled, as soon as _reduce_point returns.
        return [
            reduce(ebn0, _in_order(pool, _point_chunks(*task), pool_size))
            for ebn0, task in zip(grid, tasks)
        ]


def _point_chunks(config, point_seed, params):
    """The _simulate_chunk arguments of one point's chunks, in index order,
    made as they are taken."""
    ramp, steady = _chunk_starts(config.max_frames, _chunk_cap(_frame_shape(config)[1]))
    for start, stop in pairwise(chain(ramp, steady, [config.max_frames])):
        yield config, point_seed, start, stop - start, params


def _simulate_point(args):
    """Simulate one point up to its stop: its chunks in index order, each
    made and run (through _simulate_chunk) only once the ones before it
    have not reached config.min_frame_errors, and the last one cut at the
    exact frame that reaches it (_cut).

    Every chunk draws into one _draw_buffers set, made once before the
    first chunk and sized for the point's largest, min(_chunk_cap,
    max_frames) frames.

    args is (config, point_seed, params).  Returns the point's record in a
    chunk's shape, (frames, offsets, bit_errors), with offsets counted from
    the point's frame 0; _reduce_point takes it as a one-chunk point.
    """
    config = args[0]
    payload_bits, channel_bits, _ = _frame_shape(config)
    buffers = _draw_buffers(payload_bits, channel_bits, min(_chunk_cap(channel_bits), config.max_frames))
    frames, offsets, bit_errors = 0, [], []
    chunks = map(_simulate_chunk, (chunk + (buffers,) for chunk in _point_chunks(*args)))
    for count, chunk_offsets, chunk_bits in _cut(chunks, config.min_frame_errors):
        offsets.append(chunk_offsets + frames)
        bit_errors.append(chunk_bits)
        frames += count
    return frames, np.concatenate(offsets), np.concatenate(bit_errors)


def _in_order(pool, chunks, window):
    """Chunk results from pool in index order, with at most window chunks in
    flight; chunks still queued are cancelled when the generator is closed."""
    pending = deque()
    try:
        for chunk in chunks:
            pending.append(pool.submit(_simulate_chunk, chunk))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _cut(results, min_frame_errors):
    """Chunk results of one point in index order, up to the exact frame
    whose error reaches min_frame_errors: the chunk holding that frame is
    cut after it, and no result is taken after it.  The sweep's one stop
    rule; cutting a record it has cut leaves it as it is."""
    frame_errors = 0
    for count, offsets, per_error_bits in results:
        needed = min_frame_errors - frame_errors
        if len(offsets) >= needed:
            yield int(offsets[needed - 1]) + 1, offsets[:needed], per_error_bits[:needed]
            return
        frame_errors += len(offsets)
        yield count, offsets, per_error_bits


def _reduce_point(ebn0, results, min_frame_errors, payload_bits):
    """One point's SweepPoint from its chunk results, taken in index order
    up to the exact frame whose error reaches min_frame_errors."""
    frames = bit_errors = frame_errors = 0
    for count, offsets, per_error_bits in _cut(results, min_frame_errors):
        frames += count
        bit_errors += int(per_error_bits.sum())
        frame_errors += len(offsets)
    ber = bit_errors / (frames * payload_bits)
    return SweepPoint(ebn0, frames, bit_errors, frame_errors, ber, frame_errors / frames)


def emit_csv(points, metadata):
    """Render sweep points as CSV text.

    Leading comment '# code=<N>,<K> decoder=<name> seed=<seed>', then the
    header 'ebno_db,frames,bit_errors,frame_errors,ber,fer', one row per
    point.  Floats are written with repr so parsing returns them exactly.
    """
    lines = [
        f"# code={metadata['code']} decoder={metadata['decoder']} seed={metadata['seed']}",
        "ebno_db,frames,bit_errors,frame_errors,ber,fer",
    ]
    for p in points:
        lines.append(
            f"{p.ebn0_db!r},{p.frames},{p.bit_errors},{p.frame_errors},{p.ber!r},{p.fer!r}"
        )
    return "\n".join(lines) + "\n"


def parse_csv(text):
    """Parse emit_csv output back into (points, metadata)."""
    metadata = {}
    points = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    metadata[key] = value
            continue
        if line.startswith("ebno_db"):
            continue
        cols = line.split(",")
        if len(cols) != 6:
            raise ValueError(f"malformed CSV row: {line!r}")
        points.append(
            SweepPoint(
                ebn0_db=float(cols[0]),
                frames=int(cols[1]),
                bit_errors=int(cols[2]),
                frame_errors=int(cols[3]),
                ber=float(cols[4]),
                fer=float(cols[5]),
            )
        )
    return points, metadata


def crossing_points(points, target_ber):
    """The adjacent measured points (BER > 0) whose BERs bracket target_ber."""
    usable = [p for p in points if p.ber > 0]
    for a, b in zip(usable, usable[1:]):
        if a.ber >= target_ber >= b.ber:
            return a, b
    raise NoCrossingError(f"no crossing of ber={target_ber:g}")


def _crossing_ebn0(points, target_ber):
    """Eb/N0 at which the curve crosses target_ber, log-linear interpolation."""
    a, b = crossing_points(points, target_ber)
    if a.ber == b.ber:
        return a.ebn0_db
    span = math.log10(a.ber) - math.log10(b.ber)
    frac = (math.log10(a.ber) - math.log10(target_ber)) / span
    return a.ebn0_db + frac * (b.ebn0_db - a.ebn0_db)


def compare_gain(curve_a, curve_b, target_ber):
    """Coding-gain difference in dB between two measured curves.

    Interpolates each curve's Eb/N0 at the target BER (linear in dB versus
    log10 BER) and returns crossing(a) - crossing(b).  Raises
    NoCrossingError when either curve does not bracket the target.
    """
    return _crossing_ebn0(curve_a, target_ber) - _crossing_ebn0(curve_b, target_ber)
