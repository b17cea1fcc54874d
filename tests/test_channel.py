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


class TestHardSlice:
    def test_bpsk_pinned(self):
        assert np.array_equal(hard_slice(np.array([0.3, -0.1])), [0, 1])

    def test_tie_rule(self):
        assert hard_slice(np.array([0.0]))[0] == 0
        assert hard_slice(np.array([-0.0]))[0] == 0

    def test_crossover_matches_q_function(self, rng):
        params = ChannelParams(4.0, 11 / 16)
        bits = rng.integers(0, 2, 10**6)
        received = modulate(bits) + rng.normal(0, params.noise_sigma, 10**6)
        sliced = hard_slice(received)
        p_hat = np.mean(sliced != bits)
        p_theory = oracles.q_function(1.0 / params.noise_sigma)
        assert p_hat == pytest.approx(p_theory, rel=0.02)
