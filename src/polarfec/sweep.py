"""Monte-Carlo BER/FER sweep engine with deterministic block-keyed streams.

Frame i of a point takes its randomness from row i % STREAM_FRAMES of one
stream block: a counter-based Philox stream keyed by (point_seed,
i // STREAM_FRAMES) that draws the block's messages and then its noise.  A
sweep's outcome is therefore a pure function of its configuration: frames
may be simulated in any order, in chunks of any size, or on any number of
parallel workers without changing a single count.  Early stopping cuts at
the exact frame where the requested number of frame errors is reached.
"""

from __future__ import annotations

import math
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

# Confidence floor: points with fewer frame errors are flagged, not trusted.
MIN_CONFIDENT_ERRORS = 20


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
        if self.max_frames < 1 or self.min_frame_errors < 1:
            raise ValueError("max_frames and min_frame_errors must be >= 1")
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

    def ebn0_points(self):
        count = int(math.floor((self.ebn0_stop - self.ebn0_start) / self.ebn0_step + 1e-9)) + 1
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


def _block_draws(point_seed, block, payload_bits, channel_bits, sigma, rows=STREAM_FRAMES):
    """Stream block `block` of a point: STREAM_FRAMES messages, then the
    channel noise of its first `rows` frames, from
    Generator(Philox(key=[point_seed, block])).  The noise comes out row by
    row, so fewer rows are a prefix of the whole block's noise."""
    gen = np.random.Generator(np.random.Philox(key=[point_seed, block]))
    messages = gen.integers(0, 2, size=(STREAM_FRAMES, payload_bits), dtype=np.uint8)
    return messages, gen.normal(0.0, sigma, size=(rows, channel_bits))


def frame_draws(point_seed, frame_index, payload_bits, channel_bits, sigma):
    """The per-frame random draws: message bits, then channel noise.

    This is the reference definition of a frame's randomness: row
    frame_index % STREAM_FRAMES of block frame_index // STREAM_FRAMES.  The
    chunked engine draws the same whole blocks and slices them.
    """
    block, row = divmod(frame_index, STREAM_FRAMES)
    messages, noise = _block_draws(point_seed, block, payload_bits, channel_bits, sigma)
    return messages[row], noise[row]


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


def _simulate_chunk(args):
    """Simulate frames [start, start+count) of one point.

    args is (config, point_seed, start, count, params), with params the
    point's ChannelParams.  Each stream block the chunk touches is drawn up
    to the last noise row it uses.  Returns per-frame bit-error counts and
    frame-error flags.
    """
    config, point_seed, start, count, params = args
    payload_bits, channel_bits, _ = _frame_shape(config)
    messages = np.empty((count, payload_bits), dtype=np.uint8)
    noise = np.empty((count, channel_bits))
    stop = start + count
    for block in range(start // STREAM_FRAMES, -(-stop // STREAM_FRAMES)):
        first = block * STREAM_FRAMES
        lo, hi = max(start, first), min(stop, first + STREAM_FRAMES)
        block_messages, block_noise = _block_draws(
            point_seed, block, payload_bits, channel_bits, params.noise_sigma, hi - first
        )
        messages[lo - start:hi - start] = block_messages[lo - first:hi - first]
        noise[lo - start:hi - start] = block_noise[lo - first:hi - first]

    if config.decoder == "rs15_11":
        decoded = _run_rs_frames(messages, noise, params)
    else:
        decoded = _run_polar_frames(config, messages, noise, params)
    wrong = decoded != messages
    return wrong.sum(axis=1).astype(np.int64), wrong.any(axis=1)


def _run_polar_frames(config, messages, noise, params):
    spec = config.code
    codewords = batch.encode_systematic_rows(messages, spec)
    received = channel.modulate(codewords, params) + noise
    if config.decoder == "hard":
        llrs = batch.hard_llr_rows(channel.hard_slice(received, params))
        u_hat = batch.decode_minsum_rows(llrs, spec)
    else:
        llrs = channel.llr_from_awgn(received, params)
        if config.decoder == "soft_minsum":
            u_hat = batch.decode_minsum_rows(llrs, spec)
        elif config.decoder == "soft_exact":
            u_hat = batch.decode_exact_rows(llrs, spec)
        else:
            u_hat = batch.decode_fixed_rows(
                llrs, spec, QuantSpec(config.quant_bits, config.frac_bits)
            )
    x_hat = batch.transform_rows(u_hat)
    return x_hat[:, list(spec.info_set)]


def _run_rs_frames(messages, noise, params):
    info_symbols = reed_solomon.bits_to_symbols(messages)
    codewords = reed_solomon.rs_encode_rows(info_symbols)
    code_bits = reed_solomon.symbols_to_bits(codewords)
    received = channel.modulate(code_bits, params) + noise
    received_symbols = reed_solomon.bits_to_symbols(channel.hard_slice(received, params))
    decoded_symbols, _ = reed_solomon.rs_decode_rows(received_symbols)
    return reed_solomon.symbols_to_bits(decoded_symbols)


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


def run_sweep(config, workers=1):
    """Run the configured sweep; returns one SweepPoint per Eb/N0 value.

    The result is a pure function of config: counts are identical for any
    worker count and any chunk size, because frame i's draws come from
    stream block i // STREAM_FRAMES whichever chunk simulates it, and chunks
    are reduced in index order with the stop rule evaluated on the exact
    per-frame error sequence.  Each point's chunks start at one block and
    double up to CHUNK_FRAMES.  With workers > 1 the whole sweep shares one
    process pool of min(workers, chunks per point) processes.  config was
    checked, and its code resolved, when it was built.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    payload_bits, _, rate = _frame_shape(config)
    max_frames = config.max_frames
    ramp, steady = _chunk_starts(max_frames)
    pool_size = min(workers, len(ramp) + len(steady))
    points = []
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else nullcontext() as pool:
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
    for per_frame_bits, per_frame_flags in results:
        cumulative = frame_errors + np.cumsum(per_frame_flags)
        cut = min(int(np.searchsorted(cumulative, min_frame_errors)) + 1, len(cumulative))
        frames += cut
        bit_errors += int(per_frame_bits[:cut].sum())
        frame_errors = int(cumulative[cut - 1])
        if frame_errors >= min_frame_errors:
            break
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
