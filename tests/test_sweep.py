import hashlib
import os
import subprocess
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

import oracles
from polarfec import (
    ChannelParams,
    NoCrossingError,
    SweepConfig,
    SweepPoint,
    compare_gain,
    emit_csv,
    parse_csv,
    run_sweep,
)
from polarfec import CodeSpec, QuantSpec, channel, construction, validate_domination
from polarfec import sweep as sweep_module
from polarfec.batch import (
    decode_exact_rows,
    decode_fixed_rows,
    decode_minsum_rows,
    encode_systematic_rows,
    hard_llr_rows,
    transform_rows,
)
from polarfec.reed_solomon import bits_to_symbols, rs_decode_rows, rs_encode_rows, symbols_to_bits
from polarfec.sweep import DECODERS, MAX_EBN0_POINTS, STREAM_FRAMES, frame_draws, point_seed_for


class TestFrameStreams:
    def test_frame_random_equals_fresh_philox(self):
        # frame i is row i % 256 of the block keyed [seed, i // 256], which
        # draws all 256 messages and then all 256 noise rows
        assert STREAM_FRAMES == 256
        for frame in (0, 255, 256, 4095, 4096, 123456):
            gen = np.random.Generator(np.random.Philox(key=[314159, frame // 256]))
            bits = gen.integers(0, 2, size=(256, 11), dtype=np.uint8)[frame % 256]
            noise = gen.normal(0.0, 0.7, size=(256, 16))[frame % 256]
            message, frame_noise = frame_draws(314159, frame, 11, 16, 0.7)
            assert np.array_equal(message, bits)
            assert np.array_equal(frame_noise, noise)

    def test_partial_block_noise_is_a_prefix(self):
        # a chunk that ends inside a block draws its noise only that far, and
        # its frames are still the reference frames, in the frame-minor
        # layout (axis 0) and in rows (axis 1); the last chunk spans two
        # blocks
        first = 3 * STREAM_FRAMES
        for start, stop in ((first, first + 1), (first + 5, first + 17), (first, first + 255), (first - 3, first + 9)):
            for axis in (0, 1):
                messages, noise = sweep_module._chunk_draws(2718, start, stop - start, 11, 16, 0.7, axis)
                shapes = ((11, stop - start), (16, stop - start)) if axis == 0 else ((stop - start, 11), (stop - start, 16))
                assert (messages.shape, noise.shape) == shapes
                for column, frame in enumerate(range(start, stop)):
                    message, frame_noise = frame_draws(2718, frame, 11, 16, 0.7)
                    assert np.array_equal(np.take(messages, column, axis=1 - axis), message)
                    assert np.array_equal(np.take(noise, column, axis=1 - axis), frame_noise)

    @pytest.mark.parametrize(
        "payload_bits, channel_bits", [(11, 16), (44, 60), (96, 128), (512, 1024)], ids=["16_11", "rs", "128_96", "1024_512"]
    )
    @pytest.mark.parametrize("seed", [2718, (1 << 63) + 3 * 2048 + 700], ids=["below_2_63", "above_2_63"])
    def test_chunk_draws_match_reference(self, payload_bits, channel_bits, seed):
        # the chunk's raw-byte messages and its noise are frame_draws' (the
        # gen.integers reference) at each shape a sweep draws, in both
        # layouts, for a chunk that starts and ends mid-block across three
        # blocks; one Philox per chunk, re-keyed per block, keeps numpy's
        # rounding of seeds from 2^63 (this one reads as a multiple of
        # 2048); the (1024, 512) frames are sampled at the block edges
        start, stop = STREAM_FRAMES + 100, 3 * STREAM_FRAMES + 37
        frames = range(start, stop)
        if channel_bits > 128:
            edges = (2 * STREAM_FRAMES, 3 * STREAM_FRAMES)
            frames = sorted({start, start + 1, stop - 1, *(e + d for e in edges for d in (-1, 0, 1)), 700})
        reference = {frame: frame_draws(seed, frame, payload_bits, channel_bits, 0.7) for frame in frames}
        for axis in (0, 1):
            messages, noise = sweep_module._chunk_draws(seed, start, stop - start, payload_bits, channel_bits, 0.7, axis)
            count = stop - start
            assert messages.shape == ((payload_bits, count) if axis == 0 else (count, payload_bits))
            assert noise.shape == ((channel_bits, count) if axis == 0 else (count, channel_bits))
            for frame, (message, frame_noise) in reference.items():
                assert np.array_equal(np.take(messages, frame - start, axis=1 - axis), message)
                assert np.array_equal(np.take(noise, frame - start, axis=1 - axis), frame_noise)

    @pytest.mark.parametrize("payload_bits", [11, 44, 96, 512])
    @pytest.mark.parametrize("seed", [2718, (1 << 63) + 5], ids=["below_2_63", "above_2_63"])
    def test_raw_stream_bytes_are_the_bounded_bit_draw(self, payload_bits, seed):
        # the top bit of each raw Philox byte is gen.integers(0, 2, uint8),
        # numpy's bounded-uint8 draw, and the normals after either are the
        # same; a numpy that changes that draw fails here
        reference_bits, raw_bits = np.random.Philox(key=[seed, 3]), np.random.Philox(key=[seed, 3])
        reference = np.random.Generator(reference_bits)
        expected = reference.integers(0, 2, size=(STREAM_FRAMES, payload_bits), dtype=np.uint8)
        raw = raw_bits.random_raw(STREAM_FRAMES * payload_bits // 8).view(np.uint8)
        assert np.array_equal(np.right_shift(raw, 7).reshape(STREAM_FRAMES, payload_bits), expected)
        assert reference_bits.state["has_uint32"] == raw_bits.state["has_uint32"] == 0
        normals = reference.standard_normal(1000)
        assert np.array_equal(np.random.Generator(raw_bits).standard_normal(1000), normals)

    def test_frame_draws_reproducible(self):
        a = frame_draws(7, 99, 11, 16, 0.5)
        b = frame_draws(7, 99, 11, 16, 0.5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_point_seed_stable(self):
        assert point_seed_for(42, 3) == point_seed_for(42, 3)
        assert point_seed_for(42, 3) != point_seed_for(42, 4)

    def test_stream_key_rounds_seeds_from_2_63(self):
        # numpy reads key=[seed, block] with seed >= 2^63 as float64, so the
        # key word is the seed rounded to a multiple of 2048; every count pin
        # rests on these keys.  About half of all point seeds are that large.
        top = 1 << 63
        assert np.random.Philox(key=[top + 1, 5]).state["state"]["key"].tolist() == [top, 5]
        assert np.random.Philox(key=[top - 1, 5]).state["state"]["key"].tolist() == [top - 1, 5]
        same = [frame_draws(seed, 300, 11, 16, 0.7) for seed in (top, top + 1, top + 2, top + 1023)]
        for message, noise in same[1:]:
            assert np.array_equal(message, same[0][0]) and np.array_equal(noise, same[0][1])
        for seed in (top - 1, top + 2048):
            assert not np.array_equal(frame_draws(seed, 300, 11, 16, 0.7)[1], same[0][1])
        seeds = [point_seed_for(0, index) for index in range(64)]
        assert 16 < sum(seed >= top for seed in seeds) < 48

    def test_single_frame_reproducible_in_isolation(self, spec16_11):
        # frame 1000 simulated alone equals frame 1000 inside a larger chunk
        from polarfec.sweep import _simulate_chunk

        config = small_config(code=spec16_11)
        seed = point_seed_for(config.master_seed, 0)
        params = ChannelParams(2.0, 11 / 16)
        bits_bulk = dense_bit_errors(_simulate_chunk((config, seed, 0, 2048, params)))
        bits_one = dense_bit_errors(_simulate_chunk((config, seed, 1000, 1, params)))
        assert bits_one.shape == (1,)
        assert bits_one[0] == bits_bulk[1000]


def dense_bit_errors(result):
    """Per-frame bit-error counts of a chunk's sparse (count, offsets,
    bit_errors) record, checked for its invariants on the way."""
    count, offsets, bit_errors = result
    assert len(offsets) == len(bit_errors) and (bit_errors > 0).all()
    assert (np.diff(offsets) > 0).all() and (len(offsets) == 0 or 0 <= offsets[0] <= offsets[-1] < count)
    dense = np.zeros(count, dtype=np.int64)
    dense[offsets] = bit_errors
    return dense


def dense_reference(config, point_seed, start, count, params):
    """Per-frame bit errors of frames [start, start+count), built frame-major
    from the public API only: frame_draws, the row encoders, the channel
    reference functions, decode_*_rows and transform_rows.  Returns them
    with the RS decode-failure flags, or None for a polar code."""
    payload_bits, channel_bits = sweep_module._frame_shape(config)[:2]
    draws = [
        frame_draws(point_seed, frame, payload_bits, channel_bits, params.noise_sigma)
        for frame in range(start, start + count)
    ]
    messages = np.array([message for message, _ in draws])
    noise = np.array([frame_noise for _, frame_noise in draws])
    if config.decoder == "rs15_11":
        code_bits = symbols_to_bits(rs_encode_rows(bits_to_symbols(messages)))
        received = channel.modulate(code_bits) + noise
        decoded_symbols, failure = rs_decode_rows(bits_to_symbols(channel.hard_slice(received)))
        decoded = symbols_to_bits(decoded_symbols)
    else:
        failure = None
        spec = config.code
        received = channel.modulate(encode_systematic_rows(messages, spec)) + noise
        llrs = channel.llr_from_awgn(received, params)
        if config.decoder == "hard":
            llrs = hard_llr_rows(channel.hard_slice(received))
        if config.decoder in ("hard", "soft_minsum"):
            u_hat = decode_minsum_rows(llrs, spec)
        elif config.decoder == "soft_exact":
            u_hat = decode_exact_rows(llrs, spec)
        else:
            u_hat = decode_fixed_rows(llrs, spec, QuantSpec(config.quant_bits, config.frac_bits))
        decoded = transform_rows(u_hat)[:, list(spec.info_set)]
    return (decoded != messages).sum(axis=1), failure


class TestChunkAgainstDenseReference:
    # Frames 250 to 769 touch blocks 0 to 3 and start and end mid-block.  At
    # 1 dB a G sum of exactly zero, a tie for the F and leaf after it, occurs
    # in 407 of these 520 (16,11) frames under hard decoding and in 195
    # under Q5, and in all but one (128,96) frame under either.
    START, COUNT = 250, 520

    @pytest.mark.parametrize("code, decoder", [
        *[(code, decoder) for code in ((16, 11), (128, 96)) for decoder in DECODERS if decoder != "rs15_11"],
        (None, "rs15_11"),
    ])
    def test_chunk_matches_dense_reference(self, code, decoder):
        config = SweepConfig(code=code, decoder=decoder, ebn0_start=1.0, ebn0_stop=1.0, master_seed=4)
        params = ChannelParams(1.0, sweep_module._frame_shape(config)[2])
        seed = point_seed_for(config.master_seed, 0)
        chunk = dense_bit_errors(sweep_module._simulate_chunk((config, seed, self.START, self.COUNT, params)))
        reference, _ = dense_reference(config, seed, self.START, self.COUNT, params)
        assert 0 < np.count_nonzero(reference) < self.COUNT
        assert np.array_equal(chunk, reference)

    @pytest.mark.parametrize("ebn0", [1.0, 4.0])
    def test_rs_chunks_match_dense_reference(self, ebn0):
        # The RS chunk runs in rows on packed bytes: chunks of 1, 7 and 9
        # frames, the last across the block 0/1 boundary, plus the 520 frames
        # above.  Their frames hold both decode failures and miscorrections
        # (decoded to another codeword), so both kinds of entry of the packed
        # correction table are read.
        config = SweepConfig(decoder="rs15_11", ebn0_start=ebn0, ebn0_stop=ebn0, master_seed=4)
        params = ChannelParams(ebn0, sweep_module._frame_shape(config)[2])
        seed = point_seed_for(config.master_seed, 0)
        failures = miscorrections = 0
        for start, count in ((0, 1), (3, 7), (STREAM_FRAMES - 6, 9), (self.START, self.COUNT)):
            chunk = dense_bit_errors(sweep_module._simulate_chunk((config, seed, start, count, params)))
            reference, failure = dense_reference(config, seed, start, count, params)
            assert np.array_equal(chunk, reference)
            failures += np.count_nonzero(failure)
            miscorrections += np.count_nonzero(~failure & (reference > 0))
        assert failures > 0 and miscorrections > 0


class TestConfig:
    def test_grid(self):
        config = SweepConfig(code=(16, 11), ebn0_start=1.0, ebn0_stop=4.0, ebn0_step=0.5)
        assert config.ebn0_points() == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def test_single_point_grid(self):
        config = SweepConfig(code=(16, 11), ebn0_start=3.0, ebn0_stop=3.0)
        assert config.ebn0_points() == [3.0]

    def test_rs_with_polar_code_rejected(self, spec16_11):
        with pytest.raises(ValueError, match="rs15_11"):
            SweepConfig(code=spec16_11, decoder="rs15_11")
        with pytest.raises(ValueError, match="rs15_11"):
            SweepConfig(code=(16, 11), decoder="rs15_11")

    def test_rs_accepts_its_shape(self):
        assert SweepConfig(code=(15, 11), decoder="rs15_11").code is None
        assert SweepConfig(code=None, decoder="rs15_11").code is None

    @pytest.mark.parametrize("code", [(16.0, 11.7), (16.0, 11), (16, 11.0), (15.0, 11), (15, 11.5)])
    @pytest.mark.parametrize("decoder", ["soft_minsum", "rs15_11"])
    def test_non_integer_code_rejected(self, code, decoder):
        # (16.0, 11.7) was truncated through int() and built a (16,11) code
        with pytest.raises(ValueError, match="must be an integer"):
            SweepConfig(code=code, decoder=decoder)

    @pytest.mark.parametrize("code", [16, (16,), (16, 11, 1), "16,11"])
    def test_code_that_is_not_a_pair_rejected(self, code):
        # an int raised TypeError from the unpack, not ValueError
        with pytest.raises(ValueError, match="code must be a CodeSpec or an"):
            SweepConfig(code=code)

    def test_numpy_integer_code_accepted(self, spec16_11):
        assert SweepConfig(code=(np.int64(16), np.uint8(11))).code == spec16_11
        assert SweepConfig(code=np.array([16, 11])).code == spec16_11
        assert SweepConfig(code=(np.int32(15), np.int64(11)), decoder="rs15_11").code is None

    def test_non_exact_code_spec_rejected(self):
        # two-pass systematic encoding is not exact on this frozen set, so its
        # codewords do not all carry their messages: a sweep of it read FER
        # 0.52 at 30 dB, where the channel makes no errors
        spec = CodeSpec(8, 4, frozen_set=(3, 4, 6, 7), info_set=(0, 1, 2, 5))
        assert validate_domination(spec) is False
        with pytest.raises(ValueError, match="two-pass systematic encoding is not exact"):
            SweepConfig(code=spec, ebn0_start=30.0, ebn0_stop=30.0, max_frames=256)

    def test_exactness_checked_once_per_code(self, monkeypatch):
        # the verdict is cached per CodeSpec, so rebuilding a config for an
        # equal code does not encode the unit messages again
        encodes = []
        real = construction._encode_systematic
        monkeypatch.setattr(construction, "_encode_systematic", lambda *args: encodes.append(1) or real(*args))
        validate_domination.cache_clear()
        for _ in range(3):
            SweepConfig(code=(64, 40))
        assert encodes == [1]

    def test_polar_requires_code(self):
        with pytest.raises(ValueError, match="requires a code"):
            SweepConfig(code=None, decoder="soft_minsum")

    def test_tuple_code_resolved_once(self, monkeypatch, spec16_11):
        calls = []

        def construct(n, k):
            calls.append((n, k))
            return spec16_11

        monkeypatch.setattr(sweep_module, "bhattacharyya_construct", construct)
        config = small_config(max_frames=10)
        assert config.code is spec16_11
        run_sweep(config)
        assert config.code_label() == config.code_label() == "16,11"
        assert calls == [(16, 11)]

    @pytest.mark.parametrize("grid", [
        dict(ebn0_step=float("inf")),
        dict(ebn0_stop=float("inf")),
        dict(ebn0_start=float("nan")),
        dict(ebn0_start=float("-inf")),
        dict(ebn0_step=float("nan")),
    ], ids=["step_inf", "stop_inf", "start_nan", "start_neg_inf", "step_nan"])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(code=(16, 11), **grid)

    @pytest.mark.parametrize("grid", [
        dict(ebn0_stop=1e308, ebn0_step=1e-308),
        dict(ebn0_stop=10_000.0),
        dict(ebn0_stop=1.0, ebn0_step=1e-6),
    ], ids=["count_overflows", "one_too_many", "million"])
    def test_oversized_grid_rejected(self, grid):
        with pytest.raises(ValueError, match=f"at most {MAX_EBN0_POINTS} points"):
            SweepConfig(code=(16, 11), ebn0_start=0.0, **grid)

    def test_largest_grid_accepted(self):
        # a quarter-dB step keeps the top point's noise sigma in float range
        config = SweepConfig(
            code=(16, 11), ebn0_start=0.0, ebn0_stop=(MAX_EBN0_POINTS - 1) / 4, ebn0_step=0.25,
        )
        assert len(config.ebn0_points()) == MAX_EBN0_POINTS

    @pytest.mark.parametrize("grid", [
        dict(ebn0_start=3090.0, ebn0_stop=3090.0),
        dict(ebn0_start=0.0, ebn0_stop=3080.0, ebn0_step=10.0),
        dict(ebn0_start=-3090.0, ebn0_stop=0.0, ebn0_step=3.0),
    ], ids=["3090", "stop_3080", "start_minus_3090"])
    def test_grid_beyond_float_sigma_rejected(self, grid):
        with pytest.raises(ValueError, match="outside the normal float range"):
            SweepConfig(code=(16, 11), **grid)
        with pytest.raises(ValueError, match="outside the normal float range"):
            SweepConfig(decoder="rs15_11", **grid)

    @pytest.mark.parametrize("decoder", ["soft_minsum", "hard", "rs15_11"])
    def test_grid_end_llrs_beyond_float_rejected(self, decoder):
        # sigma^2 is normal at 3070 dB, but N LLRs of up to 4/sigma^2 could
        # sum past the float range; the first point cannot be that high
        code = None if decoder == "rs15_11" else (16, 11)
        for grid in (dict(ebn0_start=3070.0, ebn0_stop=3070.0), dict(ebn0_start=0.0, ebn0_stop=3070.0, ebn0_step=10.0)):
            with pytest.raises(ValueError, match="too large for a length-"):
                SweepConfig(code=code, decoder=decoder, **grid)
        SweepConfig(code=code, decoder=decoder, ebn0_start=3000.0, ebn0_stop=3000.0)

    @pytest.mark.parametrize("quant_bits, frac_bits", [(40, 1), (2, 1), (5, 5)])
    def test_bad_fixed_format_rejected(self, quant_bits, frac_bits):
        with pytest.raises(ValueError, match="bits"):
            SweepConfig(code=(16, 11), decoder="fixed", quant_bits=quant_bits, frac_bits=frac_bits)
        # other decoders ignore the quantizer fields
        SweepConfig(code=(16, 11), decoder="soft_minsum", quant_bits=quant_bits, frac_bits=frac_bits)

    @pytest.mark.parametrize("field, value", [("quant_bits", 5.5), ("frac_bits", 1.5)])
    def test_non_integer_fixed_format_rejected(self, field, value):
        # quant_bits 5.5 built (label fixed_q5.5_f1) and died in run_sweep;
        # frac_bits 1.5 ran on a 2^-1.5 grid
        with pytest.raises(ValueError, match="must be an integer"):
            SweepConfig(code=(16, 11), decoder="fixed", **{field: value})
        config = SweepConfig(code=(16, 11), decoder="fixed", quant_bits=np.int64(5), frac_bits=np.int8(1))
        assert config.decoder_label() == "fixed_q5_f1"
        assert type(config.quant_bits) is type(config.frac_bits) is int

    def test_labels(self):
        config = SweepConfig(code=(16, 11), decoder="fixed", quant_bits=4, frac_bits=2)
        assert config.decoder_label() == "fixed_q4_f2"
        assert config.code_label() == "16,11"
        assert SweepConfig(decoder="rs15_11").code_label() == "15,11"

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(code=(16, 11), decoder="viterbi")
        with pytest.raises(ValueError):
            SweepConfig(code=(16, 11), ebn0_step=0.0)
        with pytest.raises(ValueError):
            SweepConfig(code=(16, 11), ebn0_start=5.0, ebn0_stop=4.0)
        with pytest.raises(ValueError):
            SweepConfig(code=(16, 11), max_frames=0)
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            SweepConfig(code=(16, 11), master_seed=-1)

    @pytest.mark.parametrize(
        "field, value", [("master_seed", 1.5), ("max_frames", 300.5), ("min_frame_errors", 2.5)]
    )
    def test_non_integer_counts_rejected(self, field, value):
        # seed 1.5 ran seed 1's streams while the CSV said seed=1.5; 300.5
        # raised TypeError and 2.5 IndexError inside run_sweep
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            SweepConfig(code=(16, 11), **{field: value})

    def test_numpy_integer_counts_accepted(self):
        # held as Python ints, so the CSV's floats are not numpy reprs
        config = small_config(max_frames=np.int64(300), min_frame_errors=np.int32(60), master_seed=np.uint64(11))
        assert (type(config.max_frames), type(config.min_frame_errors), type(config.master_seed)) == (int, int, int)
        plain = small_config(max_frames=300)
        assert sweep_csv(config, workers=np.int64(1)) == sweep_csv(plain)


def small_config(**overrides):
    base = dict(
        code=(16, 11),
        decoder="soft_minsum",
        ebn0_start=2.0,
        ebn0_stop=3.0,
        ebn0_step=1.0,
        max_frames=6000,
        min_frame_errors=60,
        master_seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_noiseless_limit(self, spec16_11):
        config = SweepConfig(
            code=spec16_11,
            decoder="soft_minsum",
            ebn0_start=60.0,
            ebn0_stop=60.0,
            max_frames=1000,
            min_frame_errors=10,
            master_seed=3,
        )
        (point,) = run_sweep(config)
        assert point.frames == 1000
        assert point.ber == 0.0 and point.fer == 0.0

    def test_deterministic_repeat(self):
        assert run_sweep(small_config()) == run_sweep(small_config())

    def test_worker_count_invariance(self):
        serial = run_sweep(small_config(), workers=1)
        par2 = run_sweep(small_config(), workers=2)
        par3 = run_sweep(small_config(), workers=3)
        assert serial == par2 == par3

    def test_early_stop_exact(self):
        points = run_sweep(small_config())
        for p in points:
            if p.frames < 6000:
                assert p.frame_errors == 60  # stopped at the exact crossing frame
            else:
                assert p.frame_errors <= 60

    def test_conservation(self):
        for p in run_sweep(small_config(ebn0_start=0.0, ebn0_stop=2.0)):
            assert 0 <= p.frame_errors <= p.frames
            assert 0 <= p.bit_errors <= p.frames * 11
            assert p.ber == p.bit_errors / (p.frames * 11)
            assert p.fer == p.frame_errors / p.frames

    def test_monotonic_trend_confident_points(self):
        config = small_config(
            ebn0_start=0.0, ebn0_stop=4.0, ebn0_step=2.0,
            max_frames=60_000, min_frame_errors=150,
        )
        points = run_sweep(config)
        confident = [p for p in points if p.frame_errors >= 100]
        bers = [p.ber for p in confident]
        assert bers == sorted(bers, reverse=True)

    def test_uncoded_bracket_at_4db(self, spec16_11):
        config = SweepConfig(
            code=spec16_11,
            decoder="soft_minsum",
            ebn0_start=4.0,
            ebn0_stop=4.0,
            max_frames=100_000,
            min_frame_errors=10**9,
            master_seed=5,
        )
        (point,) = run_sweep(config)
        assert point.frames == 100_000
        assert 0.0 < point.ber < oracles.uncoded_bpsk_ber(4.0)

    def test_rs_sweep_runs(self):
        config = SweepConfig(
            decoder="rs15_11",
            ebn0_start=5.0,
            ebn0_stop=5.0,
            max_frames=4000,
            min_frame_errors=50,
            master_seed=9,
        )
        (point,) = run_sweep(config)
        assert point.frame_errors >= 50 or point.frames == 4000
        assert 0 < point.ber < 0.5

    # SHA-256 of emit_csv, recorded with the 256-frame stream blocks at
    # workers 1 and 2, so any change to the RS sweep's counts shows here.
    @pytest.mark.parametrize("seed, digest", [
        (0, "62ecd2188aee5825fcf89e388df717fd0f16b16c898871e54114f42074202447"),
        (1, "cac04a82166cb60e350d519c21aaea73dd4e0f02e26267222166f74012e4e92f"),
        (2, "9bf0458476a66bea57a3e4678a62e28086bbf4880d5970e6fefdde43427683e5"),
    ], ids=["0", "1", "2"])
    def test_rs_sweep_bytes_pinned(self, seed, digest):
        text = "".join(
            rs_csv(SweepConfig(
                decoder="rs15_11", ebn0_start=ebn0, ebn0_stop=ebn0,
                max_frames=5000, min_frame_errors=5001, master_seed=seed,
            ))
            for ebn0 in (3.0, 4.0, 5.0, 7.0)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rs_early_stop_sweep_bytes_pinned(self):
        text = rs_csv(SweepConfig(
            decoder="rs15_11", ebn0_start=0.0, ebn0_stop=8.0, ebn0_step=1.0,
            max_frames=20_000, min_frame_errors=50, master_seed=11,
        ))
        digest = "a443df7b67537ececd990a5ec6e64727f177c93f2cec4c3ccef79e0df1624c8d"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # SHA-256 of emit_csv for (16,11) sweeps over 0:6:2 dB, recorded with the
    # 256-frame stream blocks at workers 1 and 2; early stop cuts inside the
    # first or second chunk at 0 and 2 dB, and inside the last one at 4 dB.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("decoder, digest", [
        ("soft_minsum", "14e62df7e0c7d07adfa766f25ab379ad3c8d3b100e08e34aa6246abdefa7214c"),
        ("soft_exact", "d8e366ff1801ee7b317bf7f0be07aa6816630a0dd6d3f7457e4e7b01e9e69e32"),
        ("hard", "b43931c025364ee10e99937587afd318d1483bf86f8036db60b10c57561efced"),
        ("fixed", "35f704f91a3e0e635cee5ed732a8ac575f52535f44755650d8174caba3dd16ba"),
    ], ids=["soft_minsum", "soft_exact", "hard", "fixed"])
    def test_polar_sweep_bytes_pinned(self, spec16_11, decoder, digest, workers):
        config = SweepConfig(
            code=spec16_11, decoder=decoder, ebn0_start=0.0, ebn0_stop=6.0, ebn0_step=2.0,
            max_frames=6000, min_frame_errors=100, master_seed=21, quant_bits=5, frac_bits=1,
        )
        text = sweep_csv(config, workers)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_counts_independent_of_chunk_frames(self, monkeypatch, spec16_11):
        # early stop cuts at 0, 2 and 4 dB, each in a different chunk; 6 dB
        # runs to max_frames, which none of the chunk sizes divides
        config = SweepConfig(
            code=spec16_11, decoder="hard", ebn0_start=0.0, ebn0_stop=6.0, ebn0_step=2.0,
            max_frames=5000, min_frame_errors=100, master_seed=21,
        )
        texts = []
        for chunk_frames in (256, 768, 4096):
            monkeypatch.setattr(sweep_module, "CHUNK_FRAMES", chunk_frames)
            texts.append(sweep_csv(config))
        assert texts[0] == texts[1] == texts[2]
        points, _ = parse_csv(texts[0])
        assert [p.frames for p in points] == [187, 348, 1271, 5000]

    def test_counts_independent_of_chunk_bytes(self, monkeypatch):
        # (1024,512) chunks are capped at 256, 512 and 1024 frames by these
        # budgets; early stop cuts at 1 dB in the first chunk and at 2 dB
        # inside the chunk from frame 768, the fourth, third and third; 3 dB
        # runs to max_frames, which no cap divides
        config = SweepConfig(
            code=(1024, 512), decoder="soft_minsum", ebn0_start=1.0, ebn0_stop=3.0, ebn0_step=1.0,
            max_frames=1300, min_frame_errors=100, master_seed=5,
        )
        texts = []
        for chunk_bytes in (1 << 21, 1 << 22, 1 << 23):
            monkeypatch.setattr(sweep_module, "CHUNK_BYTES", chunk_bytes)
            assert sweep_module._chunk_cap(1024) == chunk_bytes // 8192
            texts.append(sweep_csv(config))
        assert texts[0] == texts[1] == texts[2]
        points, _ = parse_csv(texts[0])
        assert [p.frames for p in points] == [134, 890, 1300]

    # Early stop cuts in the first chunk at 0 dB, in the second at 1 and 2
    # dB, in a middle one at 3 dB and in the last at 4 dB; 5-8 dB run to
    # max_frames, which no chunk size divides.
    NINE_POINTS = dict(
        code=(16, 11), decoder="soft_minsum", ebn0_start=0.0, ebn0_stop=8.0, ebn0_step=1.0,
        max_frames=5000, min_frame_errors=80, master_seed=0,
    )

    def test_nine_point_grid_invariant_to_workers(self):
        config = SweepConfig(**self.NINE_POINTS)
        serial = run_sweep(config, workers=1)
        assert [p.frames for p in serial] == [182, 300, 669, 1954, 4610] + [5000] * 4
        assert run_sweep(config, workers=2) == serial
        assert run_sweep(config, workers=3) == serial

    # One point each, planned 256, 512, 1024, 2048 and 1160 frames, whose
    # stop falls in the last chunk, so every chunk of the plan runs.
    WIDE_HARD = dict(
        code=(128, 96), decoder="hard", ebn0_start=6.5, ebn0_stop=6.5,
        max_frames=5000, min_frame_errors=50, master_seed=3,
    )
    RS_POINT = dict(
        decoder="rs15_11", ebn0_start=4.0, ebn0_stop=4.0,
        max_frames=5000, min_frame_errors=900, master_seed=3,
    )

    # the (point, point_index) cases; the chunks of the reference run in
    # buffers of their own, not in the point's
    @pytest.mark.parametrize(
        "point, point_index",
        [*zip([NINE_POINTS] * 5, (0, 1, 3, 4, 5)), (WIDE_HARD, 0), (RS_POINT, 0)],
        ids=["0", "1", "3", "4", "5", "wide_hard", "rs15"],
    )
    def test_point_record_is_its_chunks_cut_at_the_stop(self, point, point_index):
        config = SweepConfig(**point)
        seed = point_seed_for(config.master_seed, point_index)
        params = ChannelParams(config.ebn0_points()[point_index], sweep_module._frame_shape(config)[2])
        dense = np.concatenate([
            dense_bit_errors(sweep_module._simulate_chunk(chunk))
            for chunk in sweep_module._point_chunks(config, seed, params)
        ])
        assert len(dense) == config.max_frames
        errors = np.flatnonzero(dense)
        stop = errors[config.min_frame_errors - 1] + 1 if len(errors) >= config.min_frame_errors else len(dense)
        frames, offsets, bit_errors = sweep_module._simulate_point((config, seed, params))
        assert frames == stop
        np.testing.assert_array_equal(offsets, errors[errors < stop])
        np.testing.assert_array_equal(bit_errors, dense[errors[errors < stop]])

    @pytest.mark.parametrize("point, cap", [(WIDE_HARD, 2048), (RS_POINT, 4096)], ids=["wide_hard", "rs15"])
    def test_chunks_of_a_point_draw_into_one_buffer_set(self, monkeypatch, point, cap):
        config = SweepConfig(**point)
        _, channel_bits, rate = sweep_module._frame_shape(config)
        chunk_draws = sweep_module._chunk_draws
        drawn = []

        def recording_draws(*args):
            messages, noise = chunk_draws(*args)
            drawn.append((noise.size // channel_bits, messages.ctypes.data, noise.ctypes.data, noise.base.size))
            return messages, noise

        monkeypatch.setattr(sweep_module, "_chunk_draws", recording_draws)
        seed = point_seed_for(config.master_seed, 0)
        frames, _, _ = sweep_module._simulate_point((config, seed, ChannelParams(config.ebn0_points()[0], rate)))
        assert 3840 < frames < config.max_frames
        counts, message_data, noise_data, noise_size = zip(*drawn)
        assert list(counts) == [256, 512, 1024, 2048, 1160]
        assert len(set(message_data)) == len(set(noise_data)) == 1
        # sized once, for the chunk cap
        assert set(noise_size) == {channel_bits * cap}

    def test_fixed_sweep_runs(self, spec16_11):
        config = small_config(code=spec16_11, decoder="fixed", quant_bits=5, frac_bits=1)
        (p0, p1) = run_sweep(config)
        assert p0.ber > p1.ber > 0

    def test_low_confidence_flag(self):
        point = SweepPoint(1.0, 10, 5, 5, 0.05, 0.5)
        assert point.low_confidence
        point = SweepPoint(1.0, 1000, 500, 100, 0.05, 0.1)
        assert not point.low_confidence


def chunk_sizes(max_frames, channel_bits):
    """Frames in each chunk of one point's plan, from the plan's arithmetic
    alone: no chunk is simulated."""
    ramp, steady = sweep_module._chunk_starts(max_frames, sweep_module._chunk_cap(channel_bits))
    starts = [*ramp, *steady]
    assert starts[0] == 0 and starts == sorted(set(starts))
    return np.diff(starts + [max_frames]).tolist()


class TestChunkPlan:
    # Only the plan's arithmetic is checked; no test allocates a chunk.
    @pytest.mark.parametrize("channel_bits", [16, 60, 128, 1024, 4096, 65536])
    @pytest.mark.parametrize("max_frames", [1, 255, 256, 1300, 4096, 6000, 100_003])
    def test_chunks_tile_the_point_in_whole_blocks_within_the_byte_bound(self, channel_bits, max_frames):
        sizes = chunk_sizes(max_frames, channel_bits)
        assert sum(sizes) == max_frames and min(sizes) >= 1
        assert all(size % STREAM_FRAMES == 0 for size in sizes[:-1])
        noise_bytes = 8 * channel_bits * max(sizes)
        assert noise_bytes <= max(sweep_module.CHUNK_BYTES, 8 * STREAM_FRAMES * channel_bits)
        assert max(sizes) <= sweep_module.CHUNK_FRAMES

    @pytest.mark.parametrize("channel_bits", [16, 60, 64])
    def test_frames_of_up_to_64_bits_keep_the_frame_capped_plan(self, channel_bits):
        # polar16 and rs15 (60 channel bits) among them
        assert sweep_module._chunk_cap(channel_bits) == sweep_module.CHUNK_FRAMES == 4096
        assert chunk_sizes(4096, channel_bits) == [256, 512, 1024, 2048, 256]
        assert chunk_sizes(16384, channel_bits) == [256, 512, 1024, 2048] + [4096] * 3 + [256]
        assert chunk_sizes(6000, channel_bits) == [256, 512, 1024, 2048, 2160]

    def test_wider_frames_take_fewer_frames_down_to_one_block(self):
        assert sweep_module.CHUNK_BYTES == 2 << 20
        # polar_wide's (128,96)
        assert chunk_sizes(16384, 128) == [256, 512, 1024] + [2048] * 7 + [256]
        assert chunk_sizes(4096, 256) == [256, 512] + [1024] * 3 + [256]
        assert chunk_sizes(4096, 512) == [256] + [512] * 7 + [256]
        # polar_wide's (1024,512): one block per chunk
        assert chunk_sizes(4096, 1024) == [256] * 16
        assert chunk_sizes(600, 4096) == [256, 256, 88]
        assert sweep_module._chunk_cap(65536) == STREAM_FRAMES


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and the
    name of each submitted task, and runs every task inline, so no process
    is started."""

    opened = []
    submitted = []
    tasks = []

    def __init__(self, max_workers, initializer=None):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(fn.__name__)
        self.tasks.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


class QueuedFuture(Future):
    """A task that never leaves the queue: waiting on it fails the test
    instead of hanging it."""

    def result(self, timeout=None):
        assert self.done(), "waited on a task that never ran"
        return super().result(timeout)


class StalledPool(RecordingPool):
    """A RecordingPool whose first two tasks run (inline, an exception going
    to its future) and whose later tasks stay queued."""

    futures = []

    def submit(self, fn, *args):
        if len(self.futures) >= 2:
            future = QueuedFuture()
        else:
            future = Future()
            try:
                future.set_result(fn(*args))
            except RuntimeError as exc:
                future.set_exception(exc)
        self.futures.append(future)
        return future


class TestSweepDriver:
    def test_init_worker_sets_heap_options_where_libc_has_mallopt(self, monkeypatch):
        calls = []

        class Mallopt:  # stands in for the ctypes function, argtypes and all
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(sweep_module.ctypes, "CDLL", lambda name: Libc())
        sweep_module._init_worker()
        assert calls == list(sweep_module._WORKER_MALLOPTS)
        # a C library without mallopt leaves the worker as it is
        monkeypatch.setattr(sweep_module.ctypes, "CDLL", lambda name: object())
        sweep_module._init_worker()
        assert len(calls) == 2

    @pytest.fixture()
    def pools(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "opened", [])
        monkeypatch.setattr(RecordingPool, "submitted", [])
        monkeypatch.setattr(RecordingPool, "tasks", [])
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
        # pool sizes below do not depend on the host's CPU count
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 64)
        return RecordingPool.opened

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_config(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_sweep(small_config(), workers=workers)

    def test_one_pool_per_sweep(self, pools):
        config = small_config(ebn0_start=0.0, ebn0_stop=8.0, max_frames=4097, min_frame_errors=1)
        assert len(config.ebn0_points()) == 9
        serial = run_sweep(config, workers=1)
        assert pools == []
        assert run_sweep(config, workers=2) == serial
        assert pools == [2]

    def test_pool_sized_to_chunks_per_point(self, pools):
        # 6000 frames are chunked 256, 512, 1024, 2048 and 2160
        run_sweep(small_config(max_frames=6000), workers=8)
        assert pools == [5]
        run_sweep(small_config(max_frames=6000), workers=3)
        assert pools == [5, 3]
        run_sweep(small_config(max_frames=STREAM_FRAMES), workers=8)
        assert pools == [5, 3]  # one chunk per point: no pool at all

    def test_pool_sized_to_byte_capped_chunks(self, pools, monkeypatch):
        # a budget of 512 (16,11) frames chunks 2000 frames 256, 512, 512,
        # 512 and 208, where 4096 frames gave four chunks
        monkeypatch.setattr(sweep_module, "CHUNK_BYTES", 8 * 16 * 512)
        run_sweep(small_config(ebn0_stop=2.0, max_frames=2000, min_frame_errors=2001), workers=8)
        assert pools == [5]

    def test_pool_capped_at_cpu_count(self, pools, monkeypatch):
        # a fork-context pool starts all its workers on the first submit
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        serial = run_sweep(small_config(max_frames=6000))
        assert run_sweep(small_config(max_frames=6000), workers=100_000) == serial
        assert pools == [2]
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: None)  # unknown: one process
        run_sweep(small_config(max_frames=6000), workers=100_000)
        assert pools == [2]

    def test_pool_takes_points_unless_the_grid_is_smaller(self, pools):
        config = small_config(max_frames=6000)  # two points of five chunks
        serial = run_sweep(config)
        assert RecordingPool.submitted == []
        assert run_sweep(config, workers=3) == serial
        assert pools == [3]
        assert set(RecordingPool.submitted) == {"_simulate_chunk"}
        RecordingPool.submitted.clear()
        assert run_sweep(config, workers=2) == serial
        assert pools == [3, 2]
        assert RecordingPool.submitted == ["_simulate_point"] * 2

    def test_pool_tasks_hold_no_arrays(self, pools):
        # every task is pickled to a worker, which draws into buffers it
        # makes: a point's own set, or a chunk's on the chunk path that a
        # single point takes
        for ebn0_stop in (2.0, 3.0):
            config = small_config(ebn0_stop=ebn0_stop, min_frame_errors=6001)
            assert run_sweep(config, workers=2) == run_sweep(config)
        assert RecordingPool.submitted == ["_simulate_chunk"] * 5 + ["_simulate_point"] * 2
        for (task,) in RecordingPool.tasks:
            assert not any(isinstance(item, np.ndarray) for item in task)

    def test_pool_imported_on_first_use(self):
        # in a fresh process: importing polarfec leaves the pool's module
        # (and multiprocessing) out; a rebound pool class still runs a
        # 2-worker sweep; the name resolves to the real class on first use
        script = """if True:
            import sys
            from concurrent.futures import Future
            from polarfec import SweepConfig, run_sweep, sweep
            assert "concurrent.futures.process" not in sys.modules
            assert "ProcessPoolExecutor" not in vars(sweep)
            opened = []

            class InlinePool:
                def __init__(self, max_workers, initializer=None):
                    opened.append(max_workers)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def submit(self, fn, *args):
                    future = Future()
                    future.set_result(fn(*args))
                    return future

            sweep.ProcessPoolExecutor = InlinePool
            sweep.os.cpu_count = lambda: 64
            config = SweepConfig(code=(16, 11), decoder="soft_minsum", ebn0_start=2.0, ebn0_stop=3.0,
                                 ebn0_step=1.0, max_frames=6000, min_frame_errors=60, master_seed=11)
            points = run_sweep(config, workers=2)
            assert opened == [2]
            assert "concurrent.futures.process" not in sys.modules
            del sweep.ProcessPoolExecutor
            from concurrent.futures.process import ProcessPoolExecutor
            assert sweep.ProcessPoolExecutor is ProcessPoolExecutor is vars(sweep)["ProcessPoolExecutor"]
            try:
                sweep.ThreadPoolExecutor
            except AttributeError:
                pass
            else:
                raise AssertionError("sweep resolved a name it does not define")
            print(repr(points))
        """
        src = os.path.dirname(os.path.dirname(sweep_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == repr(run_sweep(small_config()))

    def test_failed_point_raises_and_cancels_queued_points(self, monkeypatch, pools):
        config = small_config(ebn0_start=0.0, ebn0_stop=8.0)
        failing_seed = point_seed_for(config.master_seed, 1)
        simulate_chunk = sweep_module._simulate_chunk

        def failing_chunk(args):
            if args[1] == failing_seed:
                raise RuntimeError("chunk failed")
            return simulate_chunk(args)

        monkeypatch.setattr(sweep_module, "_simulate_chunk", failing_chunk)
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", StalledPool)
        monkeypatch.setattr(StalledPool, "futures", [])
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_sweep(config, workers=2)
        futures = StalledPool.futures
        assert len(futures) == 9
        assert not any(future.cancelled() for future in futures[:2])
        assert all(future.cancelled() for future in futures[2:])

    def test_chunks_are_generated_lazily(self, monkeypatch, spec16_11):
        simulated = []
        simulate_chunk = sweep_module._simulate_chunk

        def recording_chunk(args):
            result = simulate_chunk(args)
            simulated.append(result[0])
            return result

        monkeypatch.setattr(sweep_module, "_simulate_chunk", recording_chunk)
        config = SweepConfig(
            code=spec16_11, ebn0_start=0.0, ebn0_stop=0.0,
            max_frames=10**15, min_frame_errors=10,
        )
        start = time.perf_counter()
        (point,) = run_sweep(config)
        assert time.perf_counter() - start < 1.0
        assert point.frame_errors == 10 and point.frames < STREAM_FRAMES
        assert simulated == [STREAM_FRAMES]


class TestCsv:
    def test_empty_sweep(self):
        text = emit_csv([], {"code": "16,11", "decoder": "soft_minsum", "seed": 1})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "# code=16,11 decoder=soft_minsum seed=1"
        assert lines[1] == "ebno_db,frames,bit_errors,frame_errors,ber,fer"

    def test_single_point_three_lines(self):
        point = SweepPoint(4.0, 100, 7, 3, 7 / 1100, 0.03)
        text = emit_csv([point], {"code": "16,11", "decoder": "hard", "seed": 2})
        assert len(text.splitlines()) == 3

    def test_round_trip(self, rng):
        points = []
        for _ in range(20):
            frames = int(rng.integers(1, 10**6))
            bit_errors = int(rng.integers(0, frames))
            frame_errors = int(rng.integers(0, frames))
            points.append(
                SweepPoint(
                    ebn0_db=float(rng.uniform(-2, 12)),
                    frames=frames,
                    bit_errors=bit_errors,
                    frame_errors=frame_errors,
                    ber=bit_errors / (frames * 11),
                    fer=frame_errors / frames,
                )
            )
        parsed, metadata = parse_csv(emit_csv(points, {"code": "16,11", "decoder": "soft_minsum", "seed": 77}))
        assert parsed == points
        assert metadata["decoder"] == "soft_minsum"
        assert metadata["seed"] == "77"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_csv("ebno_db,frames\n1,2\n")


def sweep_csv(config, workers=1):
    metadata = {"code": config.code_label(), "decoder": config.decoder_label(), "seed": config.master_seed}
    return emit_csv(run_sweep(config, workers=workers), metadata)


def rs_csv(config):
    metadata = {"code": config.code_label(), "decoder": config.decoder_label(), "seed": config.master_seed}
    return emit_csv(run_sweep(config), metadata)


def curve(pairs):
    return [SweepPoint(e, 10**6, int(b * 11 * 10**6), 100, b, 10 * b) for e, b in pairs]


class TestCompareGain:
    def test_identical_curves(self):
        c = curve([(0, 1e-2), (2, 1e-3), (4, 1e-4), (6, 1e-5)])
        assert compare_gain(c, c, 1e-4) == 0.0

    def test_shifted_curve_exact(self):
        a = curve([(1.0, 1e-2), (3.0, 1e-3), (5.0, 1e-4), (7.0, 1e-5)])
        b = curve([(0.0, 1e-2), (2.0, 1e-3), (4.0, 1e-4), (6.0, 1e-5)])
        assert compare_gain(a, b, 3e-4) == pytest.approx(1.0, abs=1e-12)

    def test_interpolates_between_points(self):
        a = curve([(0.0, 1e-3), (1.0, 1e-5)])
        b = curve([(0.0, 1e-3), (1.0, 1e-5)])
        assert compare_gain(a, b, 1e-4) == pytest.approx(0.0)
        # crossing sits at the log-midpoint
        assert compare_gain(a, curve([(0.0, 1e-4), (1.0, 1e-6)]), 1e-4) == pytest.approx(0.5)

    def test_no_crossing_raises(self):
        high = curve([(0, 1e-1), (2, 1e-2)])
        low = curve([(0, 1e-5), (2, 1e-6)])
        with pytest.raises(NoCrossingError):
            compare_gain(high, low, 1e-3)

    def test_zero_ber_points_skipped(self):
        a = [
            SweepPoint(0.0, 1000, 110, 50, 1e-2, 0.05),
            SweepPoint(2.0, 1000, 11, 5, 1e-3, 0.005),
            SweepPoint(4.0, 1000, 0, 0, 0.0, 0.0),
        ]
        with pytest.raises(NoCrossingError):
            compare_gain(a, a, 1e-4)
