import math

import numpy as np
import pytest

import oracles
from polarfec import (
    ChannelParams,
    hard_slice,
    llr_from_awgn,
    modulate,
)
from polarfec.batch import hard_llr_rows
from polarfec.channel import _scale_to_llrs


class TestChannelParams:
    def test_sigma_formula(self):
        p = ChannelParams(0.0, 11 / 16)
        assert p.noise_sigma**2 == pytest.approx(8 / 11)

    def test_sigma_at_high_snr(self):
        p = ChannelParams(60.0, 0.5)
        assert p.noise_sigma < 1.1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0, 0.0)

    @pytest.mark.parametrize("ebn0_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ebn0_rejected(self, ebn0_db):
        # NaN gave sigma NaN, +inf sigma 0.0 (so LLRs divided by zero)
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            ChannelParams(ebn0_db, 0.5)

    @pytest.mark.parametrize("ebn0_db", [3090.0, 3080.0, -3090.0])
    def test_sigma_outside_normal_float_range_rejected(self, ebn0_db):
        # 3090 dB overflowed 10^(ebn0/10), 3080 dB gave a subnormal sigma^2
        # and -3090 dB an infinite sigma: LLRs of inf or nan
        with pytest.raises(ValueError, match="outside the normal float range"):
            ChannelParams(ebn0_db, 11 / 16)


BPSK = ChannelParams(3.0, 0.5)


class TestModulate:
    def test_bpsk_mapping(self):
        assert np.array_equal(modulate([0, 1, 0]), [1.0, -1.0, 1.0])

    def test_equal_mean_energy(self, rng):
        bits = rng.integers(0, 2, 10**6)
        assert np.mean(modulate(bits).astype(float) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("params", [BPSK], ids=["bpsk"])
    def test_round_trip_follows_params(self, params):
        symbols = modulate([0, 1])
        zero, one = llr_from_awgn(symbols, params)
        assert zero > 0 > one
        assert np.array_equal(hard_slice(symbols), [0, 1])

    def test_symbols_are_the_hard_llrs(self, rng):
        # one +/-1 map serves as the channel symbols and the unit hard LLRs
        bits = rng.integers(0, 2, (7, 16), dtype=np.uint8)
        symbols, llrs = modulate(bits), hard_llr_rows(bits)
        assert symbols.dtype == llrs.dtype == np.int8
        assert np.array_equal(symbols, llrs)
        assert np.array_equal(symbols, 1 - 2 * bits.astype(int))


class TestLlr:
    def test_bpsk_pinned(self):
        params = ChannelParams(0.0, 0.5)  # sigma^2 = 1
        assert llr_from_awgn(np.array([1.0]), params)[0] == pytest.approx(2.0)
        assert llr_from_awgn(np.array([0.0]), params)[0] == 0.0

    def test_bpsk_rate_adjusted(self):
        params = ChannelParams(0.0, 11 / 16)  # sigma^2 = 8/11
        assert llr_from_awgn(np.array([1.0]), params)[0] == pytest.approx(2.75)

    def test_llr_calibration(self, rng):
        # P(bit=0 | LLR in a small bin) should track sigmoid(LLR)
        params = ChannelParams(2.0, 0.5)
        bits = rng.integers(0, 2, 10**6)
        received = modulate(bits) + rng.normal(0, params.noise_sigma, 10**6)
        llrs = llr_from_awgn(received, params)
        edges = np.arange(-4.0, 4.5, 0.5)
        for lo, hi in zip(edges, edges[1:]):
            sel = (llrs >= lo) & (llrs < hi)
            if sel.sum() < 2000:
                continue
            p_zero = np.mean(bits[sel] == 0)
            centre = llrs[sel].mean()
            expected = 1.0 / (1.0 + math.exp(-centre))
            assert p_zero == pytest.approx(expected, abs=0.02)

    def test_one_pass_scaling_is_the_two_pass_rule_across_the_grid(self, rng):
        # y / (sigma^2/2) is 2y / sigma^2 bit for bit, signed zeros,
        # subnormals and overflow included, over 3000 Eb/N0 values at two rates
        noise = rng.normal(0.0, 1.0, 128)
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300])
        with np.errstate(over="ignore"):
            for ebn0 in np.linspace(-30.0, 3060.0, 1500):
                for rate in (11 / 16, 0.5):
                    params = ChannelParams(float(ebn0), rate)
                    sigma = params.noise_sigma
                    y = np.concatenate([modulate(noise < 0) + sigma * noise, edges])
                    expected = (2 * y) / (sigma * sigma)
                    assert np.array_equal(_scale_to_llrs(y, params).view(np.int64), expected.view(np.int64))

    def test_scaling_at_the_smallest_admitted_sigma(self, rng):
        # below 2^-1021 halving sigma^2 rounds when its last mantissa bit is
        # set; such sigmas keep the two passes, the rest divide once, and
        # both give 2y / sigma^2 bit for bit down to the smallest sigma^2
        # ChannelParams admits (found by bisecting Eb/N0 at rate 1)
        def admitted(ebn0_db):
            try:
                return ChannelParams(ebn0_db, 1.0)
            except ValueError:
                return None

        lo, hi = 3000.0, 3100.0
        assert admitted(lo) and not admitted(hi)
        while math.nextafter(lo, hi) != hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        y = rng.uniform(-1.5, 1.5, 256)
        odd = even = 0
        for ebn0 in [lo, *np.linspace(lo - 0.5, lo, 64)]:
            params = admitted(float(ebn0))
            sigma = params.noise_sigma
            s2 = sigma * sigma
            assert 2.0**-1022 <= s2 < 2.0**-1021
            expected = (2 * y) / s2
            assert np.array_equal(_scale_to_llrs(y.copy(), params).view(np.int64), expected.view(np.int64))
            if (s2 / 2) * 2 != s2:
                odd += 1
                assert not np.array_equal(y / (s2 / 2), expected)
            else:
                even += 1
        assert odd and even


class TestHardSlice:
    def test_bpsk_pinned(self):
        assert np.array_equal(hard_slice(np.array([0.3, -0.1])), [0, 1])

    def test_tie_rule(self):
        assert hard_slice(np.array([0.0]))[0] == 0
        assert hard_slice(np.array([-0.0]))[0] == 0
        # the output form keeps the rule
        assert hard_slice(np.array([0.0, -0.0]), out=np.ones(2, dtype=bool)).tolist() == [0, 0]

    def test_out_form_equals_allocating_form(self, rng):
        # slicing into the first 60 columns of a zero-padded (count, 64) bool
        # buffer gives the allocating form's bits, as uint8 over that buffer,
        # and leaves the pad columns zero
        received = rng.normal(0.0, 1.0, (37, 60))
        received[0, :3] = [0.0, -0.0, -5e-324]
        buffer = np.zeros((37, 64), dtype=bool)
        buffer[:, :60] = True
        sliced = hard_slice(received, out=buffer[:, :60])
        assert sliced.dtype == np.uint8 and np.shares_memory(sliced, buffer)
        assert np.array_equal(sliced, hard_slice(received))
        assert sliced[0, :3].tolist() == [0, 0, 1]
        assert not buffer[:, 60:].any()

    def test_crossover_matches_q_function(self, rng):
        params = ChannelParams(4.0, 11 / 16)
        bits = rng.integers(0, 2, 10**6)
        received = modulate(bits) + rng.normal(0, params.noise_sigma, 10**6)
        sliced = hard_slice(received)
        p_hat = np.mean(sliced != bits)
        p_theory = oracles.q_function(1.0 / params.noise_sigma)
        assert p_hat == pytest.approx(p_theory, rel=0.02)
