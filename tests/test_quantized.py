from itertools import product

import numpy as np
import pytest

from polarfec import (
    QuantSpec,
    bhattacharyya_construct,
    encode_systematic,
    quantize,
    sc_decode,
    sc_decode_fixed,
)

Q5 = QuantSpec(5, 1)


class TestQuantSpec:
    def test_ranges(self):
        assert Q5.max_mag == 15
        assert QuantSpec(4, 1).max_mag == 7
        assert QuantSpec(10, 1).max_mag == 511
        assert Q5.step == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantSpec(2, 0)
        with pytest.raises(ValueError):
            QuantSpec(5, 5)
        with pytest.raises(ValueError):
            QuantSpec(5, -1)
        with pytest.raises(ValueError):
            QuantSpec(32, 1)  # a G sum of two grid values would overflow int32

    @pytest.mark.parametrize(
        "field, args", [("total_bits_q", (5.5, 1)), ("fraction_bits", (5, 1.5)), ("total_bits_q", (5.0, 1))]
    )
    def test_non_integer_format_rejected(self, field, args):
        # 5.5 built and then failed in max_mag (1 << 4.5); a 1.5 fraction ran
        # on a grid step of 2^-1.5
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuantSpec(*args)

    def test_numpy_integer_format_held_as_int(self):
        qspec = QuantSpec(np.int64(5), np.uint8(1))
        assert qspec == Q5 and type(qspec.total_bits_q) is type(qspec.fraction_bits) is int


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, Q5) == 0

    def test_rounding(self):
        assert quantize(3.7, Q5) == 7  # round(7.4)
        assert quantize(-3.7, Q5) == -7

    def test_half_away_from_zero(self):
        assert quantize(1.25, Q5) == 3
        assert quantize(-1.25, Q5) == -3

    def test_saturation(self):
        assert quantize(100.0, Q5) == 15
        assert quantize(-100.0, Q5) == -15

    def test_value_round_trip(self):
        assert quantize(3.5, Q5) * Q5.step == 3.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize(float("inf"), Q5)


class TestFixedDecode:
    def test_noiseless_sampled(self, spec16_11, rng):
        for _ in range(200):
            m = rng.integers(0, 2, 11).astype(np.uint8)
            x = encode_systematic(m, spec16_11)
            llrs = np.where(x == 0, 8.0, -8.0)
            res = sc_decode_fixed(llrs, spec16_11, Q5)
            assert np.array_equal(res.info_bits, m)

    def test_noiseless_exhaustive_4_2(self, spec4_2):
        for bits in product((0, 1), repeat=2):
            m = np.array(bits, dtype=np.uint8)
            x = encode_systematic(m, spec4_2)
            res = sc_decode_fixed(np.where(x == 0, 8.0, -8.0), spec4_2, Q5)
            assert np.array_equal(res.info_bits, m)

    def test_all_zero_llrs_tie_rule(self, spec16_11):
        res = sc_decode_fixed(np.zeros(16), spec16_11, Q5)
        assert not res.info_bits.any()
        assert res.saturation_events == 0

    def test_grid_equivalence_with_float_minsum(self, spec16_11, rng):
        # representable inputs, wide format, no saturation events:
        # decisions must match the float min-sum decoder bit for bit
        q10 = QuantSpec(10, 1)
        checked = 0
        for _ in range(2000):
            raw = rng.integers(-25, 26, 16)
            llrs = raw / 2.0
            fixed = sc_decode_fixed(llrs, spec16_11, q10)
            if fixed.saturation_events:
                continue
            float_res = sc_decode(llrs, spec16_11, "minsum")
            assert np.array_equal(fixed.u_hat, float_res.u_hat)
            checked += 1
        assert checked == 2000  # inputs were chosen small enough to never clamp

    def test_saturation_instrumented(self, spec16_11):
        res = sc_decode_fixed(np.full(16, 50.0), spec16_11, Q5)
        assert res.saturation_events >= 16  # at least every channel quantization clipped
        # (2,1) freezes bit 0, so its single G computes v + (-v) = 0 and only
        # the channel can clamp: 7.75 rounds to 16 and clips, 7.7499 rounds to 15
        spec = bhattacharyya_construct(2, 1)
        assert sc_decode_fixed([7.75, -7.75], spec, Q5).saturation_events == 2
        assert sc_decode_fixed([7.7499, -7.7499], spec, Q5).saturation_events == 0

    def test_result_invariants(self, spec16_11, rng):
        from polarfec import encode_nonsystematic

        frozen = list(spec16_11.frozen_set)
        for _ in range(100):
            res = sc_decode_fixed(rng.normal(0, 3, 16), spec16_11, Q5)
            assert not res.u_hat[frozen].any()
            assert np.array_equal(res.x_hat, encode_nonsystematic(res.u_hat))
            assert res.pe_op_count == 64

    def test_rejects_wrong_length(self, spec16_11):
        with pytest.raises(ValueError):
            sc_decode_fixed(np.zeros(8), spec16_11, Q5)


def test_frame_errors_monotone_in_q(spec16_11):
    """Same noise, widening formats: error count must not increase Q=4 -> 5 -> 10."""
    from polarfec import SweepConfig, run_sweep

    counts = {}
    for q in (4, 5, 10):
        config = SweepConfig(
            code=spec16_11,
            decoder="fixed",
            quant_bits=q,
            frac_bits=1,
            ebn0_start=4.0,
            ebn0_stop=4.0,
            ebn0_step=1.0,
            max_frames=100_000,
            min_frame_errors=10**9,
            master_seed=2024,
        )
        (point,) = run_sweep(config)
        assert point.frames == 100_000
        counts[q] = point.frame_errors
    assert counts[4] >= counts[5] >= counts[10]
