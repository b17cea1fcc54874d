"""Monte-Carlo BER/FER sweep engine with deterministic block-keyed streams.

Frame i of a point takes its randomness from row i % STREAM_FRAMES of one
stream block: a counter-based Philox stream keyed by (point_seed,
i // STREAM_FRAMES) that draws the block's messages and then its noise.  A
sweep's outcome is therefore a pure function of its configuration: frames
may be simulated in any order, in chunks of any size, or on any number of
parallel workers without changing a single count.  Early stopping cuts at
the exact frame where the requested number of frame errors is reached.

A chunk runs frame-minor, one frame per column, from its draws to its
comparison, the layout the batch SC decoder works in: it encodes, adds the
BPSK symbols into its noise and scales that to LLRs in place, decodes to
x_hat, and compares x_hat's information rows with the messages.  It returns
only its error frames, as (count, offsets, bit-error counts), and
_reduce_point cuts on the offsets.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from . import batch, channel, reed_solomon
from .construction import CodeSpec, bhattacharyya_construct
from .quantized import QuantSpec

DECODERS = ("soft_exact", "soft_minsum", "hard", "fixed", "rs15_11")

# Frames per keyed stream block; fixed, because it defines every draw.
STREAM_FRAMES = 256
# Largest scheduling chunk; any value gives the same counts.
CHUNK_FRAMES = 4096

# Most Eb/N0 points one sweep grid may hold.
MAX_EBN0_POINTS = 10_000

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
    so a bad config raises here rather than inside a pool worker.
    """

    # Given as a CodeSpec, an (N, K) tuple (constructed here), or None; held
    # as the CodeSpec for polar decoders and None for rs15_11.
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
        if self.max_frames < 1 or self.min_frame_errors < 1:
            raise ValueError("max_frames and min_frame_errors must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.decoder == "fixed":
            QuantSpec(self.quant_bits, self.frac_bits)
        if self.decoder == "rs15_11":
            rs_shape = (reed_solomon.N_SYMBOLS, reed_solomon.K_SYMBOLS)
            if self.code is not None and (isinstance(self.code, CodeSpec) or tuple(self.code) != rs_shape):
                raise ValueError("rs15_11 requires code (15, 11) or none")
            object.__setattr__(self, "code", None)
        elif self.code is None:
            raise ValueError(f"decoder {self.decoder} requires a code")
        elif not isinstance(self.code, CodeSpec):
            n, k = self.code
            object.__setattr__(self, "code", bhattacharyya_construct(int(n), int(k)))
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
    chunked engine draws the same blocks (_chunk_draws).
    """
    block, row = divmod(frame_index, STREAM_FRAMES)
    gen = np.random.Generator(np.random.Philox(key=[point_seed, block]))
    messages = gen.integers(0, 2, size=(STREAM_FRAMES, payload_bits), dtype=np.uint8)
    return messages[row], gen.normal(0.0, sigma, size=(STREAM_FRAMES, channel_bits))[row]


def point_seed_for(master_seed, point_index):
    """64-bit stream key for one sweep point."""
    ss = np.random.SeedSequence((int(master_seed), int(point_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _frame_shape(config):
    if config.code is None:
        payload = reed_solomon.K_SYMBOLS * reed_solomon.BITS_PER_SYMBOL
        chan = reed_solomon.N_SYMBOLS * reed_solomon.BITS_PER_SYMBOL
    else:
        payload, chan = config.code.info_len, config.code.block_len
    return payload, chan, payload / chan


def _chunk_draws(point_seed, start, count, payload_bits, channel_bits, sigma):
    """The draws of frames [start, start+count) of a point, frame-minor:
    column j of the (payload_bits, count) messages and of the (channel_bits,
    count) noise is frame_draws(point_seed, start + j, ...).

    Each stream block the chunk touches draws its messages, then its noise
    up to the last row the chunk uses into one STREAM_FRAMES-row scratch;
    sigma * standard normal equals gen.normal(0, sigma) bit for bit.  The
    rows used are written transposed, a block at a time.
    """
    messages = np.empty((payload_bits, count), dtype=np.uint8)
    noise = np.empty((channel_bits, count))
    scratch = np.empty((STREAM_FRAMES, channel_bits))
    stop = start + count
    for block in range(start // STREAM_FRAMES, -(-stop // STREAM_FRAMES)):
        first = block * STREAM_FRAMES
        lo, hi = max(start, first) - first, min(stop, first + STREAM_FRAMES) - first
        columns = slice(first + lo - start, first + hi - start)
        gen = np.random.Generator(np.random.Philox(key=[point_seed, block]))
        block_messages = gen.integers(0, 2, size=(STREAM_FRAMES, payload_bits), dtype=np.uint8)
        messages[:, columns] = block_messages[lo:hi].T
        gen.standard_normal(out=scratch[:hi])
        np.multiply(scratch[lo:hi].T, sigma, out=noise[:, columns])
    return messages, noise


def _simulate_chunk(args):
    """Simulate frames [start, start+count) of one point.

    args is (config, point_seed, start, count, params), with params the
    point's ChannelParams.  The chunk runs frame-minor, one frame per
    column, from its draws to its comparison.  Returns (count, offsets,
    bit_errors): the offsets from start of the frames with a bit error, in
    order, and their bit-error counts.  A frame has a bit error exactly when
    it is a frame error, so the error-free frames need no record.
    """
    config, point_seed, start, count, params = args
    payload_bits, channel_bits, _ = _frame_shape(config)
    messages, received = _chunk_draws(
        point_seed, start, count, payload_bits, channel_bits, params.noise_sigma
    )
    if config.decoder == "rs15_11":
        decoded = _rs_info_bits(messages, received)
    else:
        decoded = _polar_info_bits(config, messages, received, params)
    bit_errors = np.count_nonzero(decoded != messages, axis=0)
    offsets = np.flatnonzero(bit_errors)
    return count, offsets, bit_errors[offsets]


def _add_bpsk_symbols(noise, code_bits):
    """noise += modulate(code_bits) in place: BPSK 0 -> +1, 1 -> -1.  Every
    sweep builds its ChannelParams with the default BPSK, and the add is
    exact in either order, so this equals modulate(...) + noise."""
    symbols = np.multiply(code_bits.view(np.int8), np.int8(-2))
    symbols += 1
    noise += symbols


def _polar_info_bits(config, messages, received, params):
    """Encode, transmit and decode one frame-minor chunk of the polar code;
    returns the decoded (K, count) information bits.

    received holds the chunk's noise and is overwritten: it becomes the
    received symbols, then the soft decoders' LLRs, computed as
    channel.llr_from_awgn does.  hard decodes y < 0 as -1 and y >= 0 as +1,
    channel.hard_slice then batch.hard_llr_rows.
    """
    spec = config.code
    _add_bpsk_symbols(received, batch._encode_systematic(messages, spec, 0))
    if config.decoder == "hard":
        llrs = np.less(received, 0).view(np.int8)
        llrs *= -2
        llrs += 1
        x_hat = batch._minsum_columns(llrs, spec)
    else:
        sigma = params.noise_sigma
        llrs = np.multiply(received, 2.0, out=received)
        np.divide(llrs, sigma * sigma, out=llrs)
        if config.decoder == "soft_minsum":
            x_hat = batch._minsum_columns(llrs, spec)
        elif config.decoder == "soft_exact":
            x_hat = batch._exact_columns(llrs, spec)
        else:
            x_hat = batch._fixed_columns(llrs, spec, QuantSpec(config.quant_bits, config.frac_bits))
    return np.take(x_hat, spec.info_set, axis=0)


def _rs_info_bits(messages, received):
    """Encode, transmit, hard-slice and decode one frame-minor RS(15,11)
    chunk on the row-major GF(16) kernels; returns the decoded (44, count)
    information bits.  received is overwritten as in _polar_info_bits."""
    info_symbols = reed_solomon.bits_to_symbols(messages.T)
    code_bits = reed_solomon.symbols_to_bits(reed_solomon.rs_encode_rows(info_symbols))
    _add_bpsk_symbols(received, code_bits.T)
    received_symbols = reed_solomon.bits_to_symbols(np.less(received, 0).T)
    decoded_symbols, _ = reed_solomon.rs_decode_rows(received_symbols)
    return reed_solomon.symbols_to_bits(decoded_symbols).T


def _chunk_starts(max_frames):
    """First frames of one point's chunks, as (ramp, steady).

    ramp lists the growing chunks: the first is one stream block and each
    next one doubles, so a point that stops early wastes little.  steady is
    the range of the CHUNK_FRAMES-sized chunks after it.
    """
    ramp, start, size = [], 0, min(STREAM_FRAMES, CHUNK_FRAMES)
    while size < CHUNK_FRAMES and start < max_frames:
        ramp.append(start)
        start, size = start + size, 2 * size
    return ramp, range(start, max_frames, CHUNK_FRAMES)


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
    double up to CHUNK_FRAMES.  With workers > 1 the whole sweep shares one
    process pool of min(workers, chunks per point, CPU count) processes,
    each set up by _init_worker.  config was checked, and its code
    resolved, when it was built.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    payload_bits, _, rate = _frame_shape(config)
    max_frames = config.max_frames
    ramp, steady = _chunk_starts(max_frames)
    pool_size = min(workers, len(ramp) + len(steady), os.cpu_count() or 1)
    points = []
    executor = ProcessPoolExecutor(pool_size, initializer=_init_worker) if pool_size > 1 else nullcontext()
    with executor as pool:
        for point_index, ebn0 in enumerate(config.ebn0_points()):
            params = channel.ChannelParams(ebn0, rate)
            pseed = point_seed_for(config.master_seed, point_index)
            chunks = (
                (config, pseed, start, stop - start, params)
                for start, stop in pairwise(chain(ramp, steady, [max_frames]))
            )
            # Passed inline, the results iterator is dropped, and its queued
            # chunks are cancelled, as soon as _reduce_point returns.
            points.append(_reduce_point(
                ebn0,
                map(_simulate_chunk, chunks) if pool is None
                else _in_order(pool, chunks, pool_size),
                config.min_frame_errors,
                payload_bits,
            ))
    return points


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


def _reduce_point(ebn0, results, min_frame_errors, payload_bits):
    """One point's SweepPoint from its chunk results, taken in index order
    up to the exact frame whose error reaches min_frame_errors."""
    frames = bit_errors = frame_errors = 0
    for count, offsets, per_error_bits in results:
        needed = min_frame_errors - frame_errors
        if len(offsets) >= needed:
            frames += int(offsets[needed - 1]) + 1
            bit_errors += int(per_error_bits[:needed].sum())
            frame_errors = min_frame_errors
            break
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
